package sim

// End-to-end telemetry through the simulated stack: the same instrument
// hooks acnode uses, driven by a scripted scenario with known event counts,
// asserting registry counters against node stats and reconstructing a
// check round across host and manager flight and audit records via the
// shared trace ID.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

func TestSimTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: time.Minute,
		Users:     []wire.UserID{"alice"},
		Telemetry: reg,
	})

	// Script: quorum-confirmed allow, cache hit, denial for an unknown
	// user.
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("allow check = %+v ok=%v", d, ok)
	}
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.CacheHit {
		t.Fatalf("cached check = %+v ok=%v", d, ok)
	}
	if d, ok := w.CheckSync(0, "mallory", wire.RightUse, testTimeout); !ok || d.Allowed {
		t.Fatalf("deny check = %+v ok=%v", d, ok)
	}

	// Registry counters agree with the node's own stats — same call
	// sites, so exact equality.
	st := w.Hosts[0].Stats()
	checks := reg.CounterVec("wanac_host_checks_total", "", "outcome")
	for _, tc := range []struct {
		outcome string
		want    uint64
	}{
		{"allowed", st.Allowed},
		{"cache_hit", st.CacheHits},
		{"denied", st.Denied},
	} {
		if got := checks.With(tc.outcome).Value(); got != tc.want {
			t.Errorf("checks_total{outcome=%q} = %d, want %d", tc.outcome, got, tc.want)
		}
	}
	if got := reg.Counter("wanac_host_query_rounds_total", "").Value(); got != st.QueryRounds {
		t.Errorf("query_rounds_total = %d, want %d", got, st.QueryRounds)
	}
	var served uint64
	for _, m := range w.Managers {
		served += m.Stats().QueriesServed
	}
	// Both managers share one registry, so the family aggregates them.
	if got := reg.CounterVec("wanac_manager_queries_total", "", "result").With("served").Value(); got != served {
		t.Errorf("manager queries served = %d, want %d", got, served)
	}

	// The exposition is valid and carries the simnet counters, which track
	// the network's own snapshot.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := telemetry.ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("sim exposition invalid: %v\n%s", err, out)
	}
	net := w.Net.Stats()
	for _, want := range []string{
		"wanac_simnet_sent_total " + itoa(net.Sent),
		"wanac_simnet_delivered_total " + itoa(net.Delivered),
		// The cached check emits cache-hit alone: access-allowed counts the
		// quorum allow only.
		`wanac_trace_events_total{type="access-allowed"} 1`,
		`wanac_trace_events_total{type="cache-hit"} 1`,
		`wanac_trace_events_total{type="access-denied"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func itoa(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(buf[i:])
		}
	}
}

// TestSimTraceJoinsAcrossNodes drives one multi-round check through the
// simulated network and reconstructs its lifecycle from the merged flight
// dump and the journals: the host's query rounds and decision and both
// managers' verdicts share one trace ID, even though round 1 and round 2
// used distinct nonces.
func TestSimTraceJoinsAcrossNodes(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users:      []wire.UserID{"alice"},
		Telemetry:  telemetry.NewRegistry(),
		FlightRing: 256,
		AuditRing:  256,
	})
	// Round 1 is lost on the cut links; heal before the retry fires.
	w.Net.SetLink(HostID(0), ManagerID(0), false)
	w.Net.SetLink(HostID(0), ManagerID(1), false)
	w.Sched.After(qt/2, w.Net.Heal)

	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed || d.Attempts < 2 {
		t.Fatalf("decision = %+v ok=%v (want allowed after a retry)", d, ok)
	}

	// Find the host's decision and pull every flight record with its trace.
	fl := w.FlightDump()
	var trace uint64
	var decided time.Time
	for _, r := range fl.Records {
		if r.Node == "h0" && r.Type == "access-allowed" {
			trace, decided = r.Trace, r.T
		}
	}
	if trace == 0 {
		t.Fatalf("no access-allowed flight record in %+v", fl.Records)
	}
	var sent int
	var born time.Time
	served := map[string]int{}
	for _, r := range fl.Records {
		if r.Trace != trace {
			continue
		}
		switch {
		case r.Node == "h0" && r.Type == "query-sent":
			sent++
			if born.IsZero() {
				born = r.T
			}
		case r.Type == "query-served":
			served[r.Node]++
		}
	}
	if sent < 2 {
		t.Errorf("trace %d has %d query rounds on h0, want >=2", trace, sent)
	}
	if served["m0"] == 0 || served["m1"] == 0 {
		t.Errorf("trace %d served by %v, want m0 and m1 (C=2)", trace, served)
	}
	if !decided.After(born) {
		t.Errorf("decision at %v, first query at %v: want the check to take time", decided, born)
	}

	// The journals join on the same trace: the host's decision cites
	// the rounds it took, and each manager's verdict names the host.
	var decisions int
	verdicts := map[string]bool{}
	for _, rec := range w.Journals {
		for _, r := range rec.Snapshot() {
			if r.Trace != trace {
				continue
			}
			switch r.Kind {
			case flight.KindDecision:
				decisions++
				if r.Node != "h0" || r.Attempts != d.Attempts {
					t.Errorf("decision record = %+v, want h0 after %d attempts", r, d.Attempts)
				}
			case flight.KindResponse:
				verdicts[r.Node] = r.Peer == "h0"
			}
		}
	}
	if decisions != 1 || !verdicts["m0"] || !verdicts["m1"] {
		t.Errorf("trace %d: %d decision records, manager verdicts %v; want one decision and m0, m1 answering h0", trace, decisions, verdicts)
	}
}
