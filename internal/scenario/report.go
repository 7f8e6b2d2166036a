package scenario

import (
	"fmt"
	"strings"
	"time"

	"wanac/internal/core"
)

// FormatResult renders one run's outcome as the `acsim run` transcript
// block. The output is deterministic for a given (scenario, seed).
func FormatResult(sc *Scenario, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s seed=%d\n", res.Name, res.Seed)
	fmt.Fprintf(&b, "  checks:     %d issued, %d decided (%d allowed, %d denied, %d default-allowed)\n",
		res.Checks, res.Decisions, res.Allowed, res.Denied, res.DefaultAllowed)
	if sc.AdminEvery > 0 {
		fmt.Fprintf(&b, "  revocations: %d at quorum, lag p99 %s over %d measured\n",
			res.Revocations, fmtLag(res.RevocationLagP99), len(res.RevocationLags))
	}
	protected := sc.Capacity.ServiceTime > 0 || sc.Overload != (core.OverloadConfig{})
	if o := res.Overload; protected {
		fmt.Fprintf(&b, "  overload:   shed=%d busy=%d backoffs=%d te-widenings=%d effective-te-peak=%s queue-drops=%d bulk/%d high\n",
			o.QueriesShed, o.BusyReplies, o.Backoffs, o.TeWidenings,
			res.EffectiveTePeak, o.CapacityDrops[0], o.CapacityDrops[1])
		fmt.Fprintf(&b, "  submit-lag: p99 %s over %d measured (revocation submit → converged)\n",
			fmtLag(res.SubmitLagP99), len(res.SubmitLags))
	}
	fmt.Fprintf(&b, "  audit:      %s\n", res.Audit.Summary())
	fmt.Fprintf(&b, "  network:    %s\n", res.Net)
	if len(res.SLO) > 0 {
		fmt.Fprintf(&b, "  slo:\n")
		for _, s := range res.SLO {
			fmt.Fprintf(&b, "    %-22s objective %s, sli %s, budget %s, alerts %d%s\n",
				s.Name, fmtPct(s.Objective), fmtPct(s.SLI), fmtBudget(s.BudgetConsumed),
				s.Fired, fmtAlerts(s.Alerts))
		}
	}
	fmt.Fprintf(&b, "  oracles:\n")
	for _, o := range res.Oracles {
		verdict := "pass"
		if o.Violations > 0 {
			verdict = fmt.Sprintf("FAIL (%d violations)", o.Violations)
		}
		fmt.Fprintf(&b, "    %-22s %-22s %d observations\n", o.Name, verdict, o.Observations)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	if res.FlightPath != "" {
		fmt.Fprintf(&b, "  flight dump: %s (render with: go run ./cmd/acaudit -timeline %s)\n",
			res.FlightPath, res.FlightPath)
	}
	return b.String()
}

// Verdict compresses the oracle outcome to one word per oracle for the
// gallery table: "4/4 pass" or "revocation-safety:12".
func Verdict(res *Result) string {
	var failed []string
	for _, o := range res.Oracles {
		if o.Violations > 0 {
			failed = append(failed, fmt.Sprintf("%s:%d", o.Name, o.Violations))
		}
	}
	if len(failed) == 0 {
		return fmt.Sprintf("%d/%d pass", len(res.Oracles), len(res.Oracles))
	}
	return strings.Join(failed, ", ")
}

func fmtPct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}

// fmtBudget renders budget consumption as a percentage, capped so a
// catastrophic run stays readable.
func fmtBudget(v float64) string {
	if v > 99.99 {
		return ">9999%"
	}
	return fmt.Sprintf("%.0f%%", v*100)
}

// fmtAlerts renders the alert edges as " (fired +40s, cleared +1m55s)".
func fmtAlerts(alerts []SLOAlert) string {
	if len(alerts) == 0 {
		return ""
	}
	parts := make([]string, len(alerts))
	for i, a := range alerts {
		verb := "cleared"
		if a.Firing {
			verb = "fired"
		}
		parts[i] = fmt.Sprintf("%s +%s", verb, a.At.Round(time.Second))
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

func fmtLag(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(100 * time.Millisecond).String()
}

// TableHeader heads the scenario gallery, the markdown table `acsim table`
// prints and EXPERIMENTS.md's "Scenario gallery" publishes.
const TableHeader = "| scenario | regions | M/C | load | faults | oracles | revocation lag p99 |\n" +
	"|---|---|---|---|---|---|---|\n"

// TableRow renders one run's row of the gallery. Render it when the run
// ends rather than holding its Result: Result.Telemetry keeps the run's
// whole world reachable.
func TableRow(sc *Scenario, res *Result) string {
	p := sc.policy()
	return fmt.Sprintf("| %s | %d (%s) | %d/%d | %s | %s | %s | %s |\n",
		sc.Name,
		len(sc.Topology.Regions), sc.Topology.Name,
		sc.Topology.Managers(), p.CheckQuorum,
		sc.Load.Describe(),
		sc.FaultSummary(),
		Verdict(res),
		fmtLag(res.RevocationLagP99),
	)
}
