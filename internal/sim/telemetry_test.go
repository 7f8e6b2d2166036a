package sim

// End-to-end telemetry through the simulated stack: the same instrument
// hooks acnode uses, driven by a scripted scenario with known event counts,
// asserting registry counters against node stats and reconstructing a
// check round across host and manager span streams via the shared trace
// ID.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

func TestSimTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := &telemetry.SpanBuffer{}
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: time.Minute,
		Users:     []wire.UserID{"alice"},
		Telemetry: reg,
		Spans:     spans,
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

// TestSimSpansJoinAcrossNodes drives one multi-round check through the
// simulated network and reconstructs its lifecycle from the merged span
// stream: the host's round/reply/decision spans and both managers' query
// spans share one trace ID, even though round 1 and round 2 used distinct
// nonces.
func TestSimSpansJoinAcrossNodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := &telemetry.SpanBuffer{}
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users:     []wire.UserID{"alice"},
		Telemetry: reg,
		Spans:     spans,
		// Drop ~everything on the first attempt so the check needs a
		// retry round; seed chosen so round 1 is lost and round 2 lands.
	})
	w.Net.SetLink(HostID(0), ManagerID(0), false)
	w.Net.SetLink(HostID(0), ManagerID(1), false)
	// Heal after the first round is lost, before the retry fires.
	w.Sched.After(qt/2, w.Net.Heal)

	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed || d.Attempts < 2 {
		t.Fatalf("decision = %+v ok=%v (want allowed after a retry)", d, ok)
	}

	// Find the decision span and pull every span with its trace.
	var trace uint64
	for _, s := range spans.Spans() {
		if s.Kind == "decision" && s.Note == "allowed" {
			trace = s.Trace
		}
	}
	if trace == 0 {
		t.Fatalf("no allowed decision span in %+v", spans.Spans())
	}
	byNode := map[string][]telemetry.Span{}
	nonces := map[uint64]bool{}
	rounds, queries := 0, 0
	for _, s := range spans.ByTrace(trace) {
		byNode[s.Node] = append(byNode[s.Node], s)
		switch s.Kind {
		case "round":
			rounds++
			nonces[s.Nonce] = true
		case "query":
			queries++
		}
	}
	if rounds < 2 || len(nonces) < 2 {
		t.Errorf("trace %d has %d rounds over %d nonces, want >=2 each", trace, rounds, len(nonces))
	}
	if queries < 2 {
		t.Errorf("trace %d has %d manager query spans, want >=2 (C=2)", trace, queries)
	}
	if len(byNode["h0"]) == 0 || len(byNode["m0"]) == 0 || len(byNode["m1"]) == 0 {
		t.Errorf("trace %d spans by node = %v, want all of h0/m0/m1", trace, keys(byNode))
	}
	// The host's reply and decision spans close out the trace.
	var sawReply, sawDecision bool
	for _, s := range byNode["h0"] {
		switch s.Kind {
		case "reply":
			sawReply = true
		case "decision":
			sawDecision = true
			if s.DurNs <= 0 {
				t.Errorf("decision span duration = %d, want > 0", s.DurNs)
			}
		}
	}
	if !sawReply || !sawDecision {
		t.Errorf("host spans missing reply/decision: %+v", byNode["h0"])
	}
}

func keys(m map[string][]telemetry.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
