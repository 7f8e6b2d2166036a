package audit

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
)

// Filter selects the decisions Explain reconstructs. Zero fields match
// everything; At (with Window) keeps decisions within ±Window of At on the
// deciding node's clock; Last keeps only the most recent N matches.
type Filter struct {
	App    string
	User   string
	Node   string
	Trace  uint64
	At     time.Time
	Window time.Duration
	Last   int
}

func (f Filter) matches(r *Record) bool {
	if r.Kind != KindDecision {
		return false
	}
	if f.App != "" && r.App != f.App {
		return false
	}
	if f.User != "" && r.User != f.User {
		return false
	}
	if f.Node != "" && r.Node != f.Node {
		return false
	}
	if f.Trace != 0 && r.Trace != f.Trace {
		return false
	}
	if !f.At.IsZero() {
		w := f.Window
		if w <= 0 {
			w = time.Second
		}
		if r.T.Before(f.At.Add(-w)) || r.T.After(f.At.Add(w)) {
			return false
		}
	}
	return true
}

// MatchDecisions returns the decision records in recs selected by f, in
// input order, honoring f.Last.
func MatchDecisions(recs []Record, f Filter) []Record {
	var out []Record
	for i := range recs {
		if f.matches(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	if f.Last > 0 && len(out) > f.Last {
		out = out[len(out)-f.Last:]
	}
	return out
}

const clockFmt = "15:04:05.000"

// Outcome renders the decision outcome word for headlines.
func (r *Record) Outcome() string {
	switch {
	case r.Reason.Default() && r.Reason.Allowed():
		return "ALLOW(default)"
	case r.Allowed:
		return "ALLOW"
	}
	return "DENY"
}

// Headline renders the record's one-line summary.
func (r *Record) Headline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s app=%s user=%s right=%s %s reason=%s",
		r.Kind, r.T.Format(clockFmt), r.Node, r.App, r.User, r.Right,
		r.Outcome(), r.Reason)
	if r.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x", r.Trace)
	}
	return b.String()
}

// Evidence renders the record's structured evidence as one sentence: the
// "why" behind the outcome, in terms of the paper's machinery.
func (r *Record) Evidence() string {
	var b strings.Builder
	switch r.Reason {
	case ReasonCacheHit:
		fmt.Fprintf(&b, "served from ACL_cache: %d manager(s) vouch for the entry", r.Granters)
		if r.Expiry.IsZero() {
			b.WriteString("; entry has no expiry (te=0)")
		} else {
			fmt.Fprintf(&b, "; entry expires %s (%s left on %s's clock)",
				r.Expiry.Format(clockFmt), r.Expiry.Sub(r.T).Round(time.Millisecond), r.Node)
		}
	case ReasonQuorumAllow:
		fmt.Fprintf(&b, "check quorum reached: %d/%d queried managers granted", r.Confirmations, r.Queried)
		if r.Managers != "" {
			fmt.Fprintf(&b, " (%s)", r.Managers)
		}
		fmt.Fprintf(&b, " in %d attempt(s)", r.Attempts)
		if r.Expiry.IsZero() {
			b.WriteString("; grant never expires (te=0)")
		} else {
			fmt.Fprintf(&b, "; grant cached until %s (te=%s, delay-adjusted per §3.2)",
				r.Expiry.Format(clockFmt), r.Expire)
		}
	case ReasonQuorumDeny:
		fmt.Fprintf(&b, "explicit denial: %d of %d managers denied (%d asked), so %d grants are impossible (quorum %d); cached grant flushed",
			r.Denials, r.Set, r.Queried, r.Quorum, r.Quorum)
	case ReasonDefaultAllow:
		fmt.Fprintf(&b, "verification unreachable: all %d attempt(s) timed out; high-availability rule (Figure 4) allows by default", r.Attempts)
	case ReasonResolveAllow:
		fmt.Fprintf(&b, "name-service resolution failed %d time(s); high-availability rule (Figure 4) allows by default", r.Attempts)
	case ReasonUnreachableDeny:
		fmt.Fprintf(&b, "verification unreachable: all %d attempt(s) timed out; fail-safe policy denies", r.Attempts)
	case ReasonResolveDeny:
		fmt.Fprintf(&b, "name-service resolution failed after %d attempt(s); fail-safe policy denies", r.Attempts)
	case ReasonUnregisteredDeny:
		b.WriteString("app is not registered on this host (or the right is invalid); denied without a protocol exchange")
	case ReasonQueryGranted:
		fmt.Fprintf(&b, "granted to host %s with te=%s", r.Peer, r.Expire)
		if r.Origin != "" {
			fmt.Fprintf(&b, " (last ACL op %s/%d)", r.Origin, r.Counter)
		}
	case ReasonQueryDenied:
		fmt.Fprintf(&b, "denied to host %s: no matching ACL entry", r.Peer)
		if r.Origin != "" {
			fmt.Fprintf(&b, " (last ACL op %s/%d)", r.Origin, r.Counter)
		}
	case ReasonQueryFrozen:
		fmt.Fprintf(&b, "declined: manager frozen or syncing (§3.3), host %s must try elsewhere", r.Peer)
	case ReasonQueryShed:
		fmt.Fprintf(&b, "shed: admission control over budget, host %s told to back off", r.Peer)
	case ReasonQueryUnknownApp:
		fmt.Fprintf(&b, "app unknown to this manager; host %s gets an empty response", r.Peer)
	default:
		b.WriteString("no evidence recorded")
	}
	if r.Frozen {
		b.WriteString("; a manager reported the freeze state during the check")
	}
	if r.Backoffs > 0 {
		fmt.Fprintf(&b, "; deferred %d time(s) by busy/backoff windows", r.Backoffs)
	}
	return b.String()
}

// Explain writes a causal explanation for every decision in d selected by
// f: the decision headline and evidence, the manager responses sharing its
// trace ID, and — when a flight dump or span stream is supplied — the
// flight-recorder timeline and spans of the same check. Returns how many
// decisions were explained.
func Explain(w io.Writer, d *Dump, fl *flight.Dump, spans []telemetry.Span, f Filter) int {
	if d == nil {
		return 0
	}
	decisions := MatchDecisions(d.Records, f)
	for i := range decisions {
		if i > 0 {
			fmt.Fprintln(w)
		}
		explainOne(w, &decisions[i], d.Records, fl, spans)
	}
	return len(decisions)
}

func explainOne(w io.Writer, dec *Record, all []Record, fl *flight.Dump, spans []telemetry.Span) {
	fmt.Fprintln(w, dec.Headline())
	fmt.Fprintf(w, "  evidence: %s\n", dec.Evidence())
	if dec.Trace != 0 {
		for i := range all {
			r := &all[i]
			// Trace IDs are minted per host (the nonce sequence), so a
			// merged multi-host dump can hold colliding traces; the
			// response's Peer names the querying host and disambiguates.
			if r.Kind == KindResponse && r.Trace == dec.Trace &&
				(r.Peer == "" || dec.Node == "" || r.Peer == dec.Node) {
				fmt.Fprintf(w, "  manager %s: %s\n", r.Node, r.Evidence())
			}
		}
		if fl != nil {
			wrote := false
			for i := range fl.Records {
				r := &fl.Records[i]
				if r.Trace != dec.Trace {
					continue
				}
				if !wrote {
					fmt.Fprintln(w, "  flight:")
					wrote = true
				}
				line := fmt.Sprintf("    %s %s %s", r.T.Format(clockFmt), r.Node, r.Type)
				if r.Peer != "" {
					line += " peer=" + r.Peer
				}
				if r.Note != "" {
					line += " " + r.Note
				}
				fmt.Fprintln(w, line)
			}
		}
		for _, s := range spans {
			if s.Trace != dec.Trace {
				continue
			}
			line := fmt.Sprintf("  span: %s %s %s", s.Time.Format(clockFmt), s.Node, s.Kind)
			if s.Peer != "" {
				line += " peer=" + s.Peer
			}
			if s.Round != 0 {
				line += fmt.Sprintf(" round=%d", s.Round)
			}
			if s.Note != "" {
				line += " " + s.Note
			}
			fmt.Fprintln(w, line)
		}
	}
}
