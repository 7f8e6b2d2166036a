package scenario

import (
	"testing"
	"time"
)

func findSLO(t *testing.T, res *Result, name string) SLOReport {
	t.Helper()
	for _, s := range res.SLO {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("result has no SLO %q (have %v)", name, sloNames(res))
	return SLOReport{}
}

func sloNames(res *Result) []string {
	names := make([]string, len(res.SLO))
	for i, s := range res.SLO {
		names[i] = s.Name
	}
	return names
}

// TestOverload100xRevocationLagBurnAlert is the SLO regression the
// tentpole promises: during the 100× flood the black-box prober sees
// revocation lag blow past Te/10, the multi-window burn-rate alert
// fires while the flood is still running — before the adaptive-Te
// controller exhausts its widening headroom — and clears once the flood
// subsides, ending the run green.
func TestOverload100xRevocationLagBurnAlert(t *testing.T) {
	sc, err := Lookup("overload-100x")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	for _, name := range []string{
		"check-latency", "check-availability", "revocation-lag",
		"lane-drops-bulk", "lane-drops-high",
	} {
		findSLO(t, res, name)
	}

	// The flash crowd ramps at +40s and falls away by +95s.
	floodStart, floodEnd := 40*time.Second, 95*time.Second

	lag := findSLO(t, res, "revocation-lag")
	if lag.Fired < 1 {
		t.Fatalf("revocation-lag alert never fired: %+v", lag)
	}
	if lag.Firing {
		t.Fatalf("revocation-lag alert still firing at run end: %+v", lag)
	}
	rise := lag.Alerts[0]
	if !rise.Firing {
		t.Fatalf("first revocation-lag transition is not a rise: %+v", lag.Alerts)
	}
	if rise.At < floodStart || rise.At > floodEnd+sloFastWindow {
		t.Fatalf("revocation-lag alert fired at +%s, want within the flood [%s, %s]",
			rise.At, floodStart, floodEnd+sloFastWindow)
	}
	clear := lag.Alerts[len(lag.Alerts)-1]
	if clear.Firing {
		t.Fatalf("last revocation-lag transition is not a clear: %+v", lag.Alerts)
	}
	if clear.At < floodEnd {
		t.Fatalf("revocation-lag alert cleared at +%s, before the flood ended (+%s)", clear.At, floodEnd)
	}

	// Alerting must beat the adaptive-Te controller to the punch: by the
	// time a manager's effective Te hits the AdaptiveTe.Max cap (no
	// headroom left to protect revocations), some burn-rate alert is
	// already firing.
	if res.TeMaxedAt == 0 {
		t.Fatalf("adaptive Te never reached its cap; overload-100x should exhaust headroom (peak %s)",
			res.EffectiveTePeak)
	}
	earliest := time.Duration(-1)
	for _, s := range res.SLO {
		for _, a := range s.Alerts {
			if a.Firing && (earliest < 0 || a.At < earliest) {
				earliest = a.At
			}
		}
	}
	if earliest < 0 || earliest > res.TeMaxedAt {
		t.Fatalf("first burn-rate alert at +%s, after adaptive Te maxed at +%s", earliest, res.TeMaxedAt)
	}
}

// TestSteadyBaselineBurnsNoBudget pins the quiet end of the SLO suite:
// a clean run must not consume budget or fire alerts, so any future
// regression that degrades the steady state shows up here.
func TestSteadyBaselineBurnsNoBudget(t *testing.T) {
	sc, err := Lookup("steady-baseline")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("oracle violations: %v", res.Violations)
	}
	if len(res.SLO) == 0 {
		t.Fatal("no SLO reports on an instrumented run")
	}
	for _, s := range res.SLO {
		if s.Fired != 0 || s.Firing {
			t.Errorf("SLO %s fired on a clean run: %+v", s.Name, s)
		}
		if s.BudgetConsumed > 0.1 {
			t.Errorf("SLO %s consumed %.0f%% budget on a clean run", s.Name, s.BudgetConsumed*100)
		}
		if s.SLI < 0.99 {
			t.Errorf("SLO %s SLI %.3f on a clean run", s.Name, s.SLI)
		}
	}
}
