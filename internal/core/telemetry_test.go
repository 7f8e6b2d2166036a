package core

// Counter-exactness tests: scripted scenarios with known event counts,
// asserting that HostStats/ManagerStats and the telemetry registry agree
// with each other and with the script. These pin the invariant documented
// in telemetry.go: registry counters are incremented at the same call
// sites as the stats fields, so the two views cannot drift.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

func hostCounter(reg *telemetry.Registry, name string, labels ...string) uint64 {
	// Re-resolving a family returns the same children, so tests read the
	// exact counters the node incremented.
	if len(labels) == 0 {
		return reg.Counter(name, "").Value()
	}
	return reg.CounterVec(name, "", "outcome").With(labels...).Value()
}

func TestHostTelemetryExactness(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	reg := telemetry.NewRegistry()
	spans := &telemetry.SpanBuffer{}
	tel := InstrumentHost(reg, spans, h)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy: Policy{
			CheckQuorum: 1, QueryTimeout: time.Second,
			MaxAttempts: 2, DefaultAllow: true, Te: time.Minute,
		},
	}); err != nil {
		t.Fatal(err)
	}

	var decisions []Decision
	record := func(d Decision) { decisions = append(decisions, d) }

	// 1. Quorum-confirmed grant: one round, one reply, cached.
	h.Check("a", "u1", wire.RightUse, record)
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u1", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute,
	})
	// 2. Cache hit.
	h.Check("a", "u1", wire.RightUse, record)
	// 3. Default allow after R=2 timed-out rounds (round 1 queries C=1
	// manager, round 2 widens to both).
	h.Check("a", "u2", wire.RightUse, record)
	env.advance(3 * time.Second)
	// 4. Unknown app: immediate denial.
	h.Check("ghost", "u3", wire.RightUse, record)
	// 5. Revocation notice flushes the cached entry.
	h.HandleMessage("m0", wire.RevokeNotice{App: "a", User: "u1", Right: wire.RightUse})

	if len(decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(decisions))
	}
	st := h.Stats()
	want := HostStats{
		Checks: 4, CacheHits: 1, Allowed: 1, DefaultAllowed: 1, Denied: 1,
		RevokeNotices: 1, QueryRounds: 3, QueryTimeouts: 2, CacheLen: 0,
	}
	if st != want {
		t.Fatalf("HostStats = %+v, want %+v", st, want)
	}

	// Registry counters must equal the stats snapshot exactly.
	for _, c := range []struct {
		name  string
		label string
		want  uint64
	}{
		{"wanac_host_checks_total", "allowed", st.Allowed},
		{"wanac_host_checks_total", "cache_hit", st.CacheHits},
		{"wanac_host_checks_total", "default_allowed", st.DefaultAllowed},
		{"wanac_host_checks_total", "denied", st.Denied},
		{"wanac_host_query_rounds_total", "", st.QueryRounds},
		{"wanac_host_query_timeouts_total", "", st.QueryTimeouts},
		{"wanac_host_revoke_flushes_total", "", st.RevokeNotices},
	} {
		var got uint64
		if c.label == "" {
			got = hostCounter(reg, c.name)
		} else {
			got = hostCounter(reg, c.name, c.label)
		}
		if got != c.want {
			t.Errorf("%s{%s} = %d, want %d", c.name, c.label, got, c.want)
		}
	}

	// Latency histograms: one observation per completed check, and the
	// default allow took exactly two query timeouts of virtual time.
	for _, c := range []struct {
		outcome int
		count   uint64
		sum     float64
	}{
		{outcomeAllowed, 1, 0},  // granted within the same instant (no advance)
		{outcomeCacheHit, 1, 0}, //
		{outcomeDefault, 1, 2.0},
		{outcomeDenied, 1, 0},
	} {
		s := tel.latency[c.outcome].Snapshot()
		if s.Count != c.count {
			t.Errorf("latency[%s].Count = %d, want %d", outcomeNames[c.outcome], s.Count, c.count)
		}
		if s.Sum != c.sum {
			t.Errorf("latency[%s].Sum = %v, want %v", outcomeNames[c.outcome], s.Sum, c.sum)
		}
	}

	// The cache hit's metrics are not bumped but derived from the
	// telemetry's hit count, and read like any other: per reason, per
	// bucket, and in the exposition.
	if got := ReasonCounts(reg)[audit.ReasonCacheHit]; got != st.CacheHits {
		t.Errorf("wanac_host_check_reasons_total{cache_hit} = %d, want %d", got, st.CacheHits)
	}
	if s := tel.latency[outcomeCacheHit].Snapshot(); s.Counts[0] != 1 {
		t.Errorf("latency[cache_hit] buckets = %v, want the hit in the first", s.Counts)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`wanac_host_checks_total{outcome="cache_hit"} 1`,
		`wanac_host_check_reasons_total{reason="cache_hit"} 1`,
		`wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0001"} 1`,
		`wanac_host_check_latency_seconds_sum{outcome="cache_hit"} 0`,
		`wanac_host_check_latency_seconds_count{outcome="cache_hit"} 1`,
	} {
		if !strings.Contains(text.String(), line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

func TestHostSpansReconstructCheckRound(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	reg := telemetry.NewRegistry()
	spans := &telemetry.SpanBuffer{}
	InstrumentHost(reg, spans, h)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 3},
	}); err != nil {
		t.Fatal(err)
	}

	h.Check("a", "u", wire.RightUse, func(Decision) {})
	q1 := lastQuery(t, env)
	if q1.Trace != q1.Nonce {
		t.Fatalf("first round Trace = %d, want its nonce %d", q1.Trace, q1.Nonce)
	}
	// Round 1 times out; round 2 must carry the SAME trace with a new nonce.
	env.advance(1100 * time.Millisecond)
	q2 := lastQuery(t, env)
	if q2.Nonce == q1.Nonce {
		t.Fatal("no second round")
	}
	if q2.Trace != q1.Trace {
		t.Fatalf("round 2 Trace = %d, want %d (stable across rounds)", q2.Trace, q1.Trace)
	}
	h.HandleMessage("m1", wire.Response{
		App: "a", User: "u", Right: wire.RightUse, Nonce: q2.Nonce, Granted: true, Trace: q2.Trace,
	})

	got := spans.ByTrace(q1.Trace)
	kinds := make([]string, len(got))
	for i, s := range got {
		kinds[i] = s.Kind
	}
	wantKinds := []string{"round", "timeout", "round", "reply", "decision"}
	if len(got) != len(wantKinds) {
		t.Fatalf("spans = %v, want kinds %v", kinds, wantKinds)
	}
	for i, k := range wantKinds {
		if kinds[i] != k {
			t.Fatalf("span[%d].Kind = %s, want %s (all: %v)", i, kinds[i], k, kinds)
		}
	}
	if got[3].Peer != "m1" || got[3].Note != "granted" {
		t.Errorf("reply span = %+v", got[3])
	}
	dec := got[4]
	if dec.Note != "allowed" || dec.Round != 2 || dec.DurNs != (1100*time.Millisecond).Nanoseconds() {
		t.Errorf("decision span = %+v", dec)
	}
	// The decision span's duration covers birth to decision in the host's
	// clock; the cache-hit fast path gets its own trace ID.
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	all := spans.Spans()
	hit := all[len(all)-1]
	if hit.Kind != "decision" || hit.Note != "cache_hit" {
		t.Fatalf("cache-hit span = %+v", hit)
	}
	if hit.Trace == 0 || hit.Trace == q1.Trace {
		t.Fatalf("cache-hit trace = %d, want fresh non-zero id", hit.Trace)
	}
}

func lastQuery(t *testing.T, env *fakeEnv) wire.Query {
	t.Helper()
	for i := len(env.sent) - 1; i >= 0; i-- {
		if q, ok := env.sent[i].Msg.(wire.Query); ok {
			return q
		}
	}
	t.Fatal("no query sent")
	return wire.Query{}
}

func TestManagerTelemetryExactness(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	reg := telemetry.NewRegistry()
	spans := &telemetry.SpanBuffer{}
	tel := InstrumentManager(reg, spans, m)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
		ClockBound: 0.5, UpdateRetry: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)
	m.Seed("a", "root", wire.RightManage)

	// Served queries: one grant (tracked for revocation), one deny.
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 7, Trace: 7})
	m.HandleMessage("h9", wire.Query{App: "a", User: "bob", Right: wire.RightUse, Nonce: 8, Trace: 8})

	// Issue an update; M=2, C=1 gives update quorum M-C+1 = 2, so the
	// peer's ack completes the quorum 500ms of virtual time later.
	var replies []wire.AdminReply
	m.Submit(wire.AdminOp{Op: wire.OpRevoke, App: "a", User: "alice", Right: wire.RightUse, Issuer: "root"},
		func(r wire.AdminReply) { replies = append(replies, r) })
	seq := wire.UpdateSeq{Origin: "m0", Counter: 1}
	env.advance(500 * time.Millisecond)
	m.HandleMessage("m1", wire.UpdateAck{Seq: seq})
	if len(replies) != 1 || !replies[0].QuorumReached {
		t.Fatalf("replies = %+v", replies)
	}

	// The revoke forwarded a notice to h9 (granted above); the host acks
	// 250ms later, closing the propagation measurement.
	env.advance(250 * time.Millisecond)
	m.HandleMessage("h9", wire.RevokeAck{App: "a", User: "alice", Seq: seq})

	// A peer update applies, and an older (LWW-stale) one is discarded.
	peerUpd := wire.Update{
		Seq: wire.UpdateSeq{Origin: "m1", Counter: 1}, Op: wire.OpAdd,
		App: "a", User: "carol", Right: wire.RightUse, Issued: env.Now(),
	}
	m.HandleMessage("m1", peerUpd)
	stale := wire.Update{
		Seq: wire.UpdateSeq{Origin: "m1", Counter: 2}, Op: wire.OpRevoke,
		App: "a", User: "carol", Right: wire.RightUse, Issued: env.Now().Add(-time.Hour),
	}
	m.HandleMessage("m1", stale)

	st := m.Stats()
	if st.QueriesServed != 2 || st.QueriesFrozen != 0 || st.UpdatesIssued != 1 ||
		st.UpdatesApplied != 1 || st.UpdatesStale != 1 || st.QuorumsReached != 1 {
		t.Fatalf("ManagerStats = %+v", st)
	}
	queries := reg.CounterVec("wanac_manager_queries_total", "", "result")
	updates := reg.CounterVec("wanac_manager_updates_total", "", "disposition")
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"queries served", queries.With("served").Value(), st.QueriesServed},
		{"queries frozen", queries.With("frozen").Value(), st.QueriesFrozen},
		{"updates issued", updates.With("issued").Value(), st.UpdatesIssued},
		{"updates applied", updates.With("applied").Value(), st.UpdatesApplied},
		{"updates stale", updates.With("stale").Value(), st.UpdatesStale},
		{"quorums", reg.Counter("wanac_manager_update_quorums_total", "").Value(), st.QuorumsReached},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// Quorum latency: exactly one observation of 0.5s virtual time.
	if s := tel.quorumLatency.Snapshot(); s.Count != 1 || s.Sum != 0.5 {
		t.Errorf("quorum latency count=%d sum=%v, want 1, 0.5", s.Count, s.Sum)
	}
	// Revocation propagation: the notice is created when the revoke is
	// applied locally (submit time), and the host's ack arrives 750ms of
	// virtual time later (500ms to quorum + 250ms to ack).
	lag := reg.Histogram("wanac_manager_revocation_propagation_seconds", "", nil)
	if s := lag.Snapshot(); s.Count != 1 || s.Sum != 0.75 {
		t.Errorf("revocation lag count=%d sum=%v, want 1, 0.75", s.Count, s.Sum)
	}

	// Manager-side query spans echo the host's trace IDs.
	if got := spans.ByTrace(7); len(got) != 1 || got[0].Kind != "query" ||
		got[0].Note != "granted" || got[0].Peer != "h9" || got[0].Node != "m0" {
		t.Errorf("trace 7 spans = %+v", got)
	}
	if got := spans.ByTrace(8); len(got) != 1 || got[0].Note != "denied" {
		t.Errorf("trace 8 spans = %+v", got)
	}
}

func TestManagerFreezeSyncGauges(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	reg := telemetry.NewRegistry()
	InstrumentManager(reg, nil, m)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
		ClockBound: 0.5, UpdateRetry: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// Recover with a peer: the app must sync before serving, so the
	// syncing gauge reads 1 and queries are declined as frozen.
	m.Recover()
	if st := m.Stats(); st.SyncingApps != 1 {
		t.Fatalf("SyncingApps = %d, want 1", st.SyncingApps)
	}
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 1})
	st := m.Stats()
	if st.QueriesFrozen != 1 {
		t.Fatalf("QueriesFrozen = %d, want 1", st.QueriesFrozen)
	}
	if got := reg.CounterVec("wanac_manager_queries_total", "", "result").With("frozen").Value(); got != 1 {
		t.Fatalf("frozen counter = %d, want 1", got)
	}
	// The gauge family reads through Stats(), so exposition agrees with
	// the snapshot.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `wanac_manager_syncing_apps{node="m0"} 1`; !strings.Contains(buf.String(), want+"\n") {
		t.Fatalf("exposition missing %q:\n%s", want, buf.String())
	}
}
