package core

// Counter-exactness tests: scripted scenarios with known event counts,
// asserting that HostStats/ManagerStats and the telemetry registry agree
// with the script. The registry counters are derived from the counts Stats
// reads (telemetry.go), so the tests check that every Stats counter has a
// family and that each family reads the right count.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
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

// hostLatency reads the host latency histogram of one outcome in reg.
func hostLatency(reg *telemetry.Registry, outcome int) telemetry.HistogramSnapshot {
	return reg.HistogramVec("wanac_host_check_latency_seconds", "", nil, "outcome").With(outcomeNames[outcome]).Snapshot()
}

// checkFamilies maps every uint64 counter of the stats snapshot st to the
// exported family that reads it, and requires both to read the same
// non-zero count: a counter added to the stats struct without a family
// fails here, and so does one the script never moves.
func checkFamilies(t *testing.T, st any, families map[string]func() uint64) {
	t.Helper()
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		read, ok := families[f.Name]
		if !ok {
			t.Errorf("%s.%s has no exported family", v.Type().Name(), f.Name)
			continue
		}
		if want, got := v.Field(i).Uint(), read(); want == 0 || got != want {
			t.Errorf("%s.%s = %d, its family reads %d (want equal and non-zero)", v.Type().Name(), f.Name, want, got)
		}
	}
}

func TestHostTelemetryExactness(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	reg := telemetry.NewRegistry()
	InstrumentHost(reg, nil, h)
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
	// 6. A Busy reply defers a check's round; the check stays in flight.
	h.Check("a", "u4", wire.RightUse, record)
	h.HandleMessage("m0", wire.Busy{App: "a", Nonce: env.lastQueryNonce(t), RetryAfter: time.Second})

	if len(decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(decisions))
	}
	st := h.Stats()
	want := HostStats{
		Checks: 4, CacheHits: 1, Allowed: 1, DefaultAllowed: 1, Denied: 1,
		RevokeNotices: 1, QueryRounds: 4, QueryTimeouts: 2, BusyReplies: 1, Backoffs: 1, CacheLen: 0,
	}
	if st != want {
		t.Fatalf("HostStats = %+v, want %+v", st, want)
	}

	// Registry counters must equal the stats snapshot exactly.
	outcomes := reg.CounterVec("wanac_host_checks_total", "", "outcome")
	counter := func(name string) func() uint64 { return reg.Counter(name, "").Value }
	checkFamilies(t, st, map[string]func() uint64{
		"Checks": func() uint64 {
			var n uint64
			for _, name := range outcomeNames {
				n += outcomes.With(name).Value()
			}
			return n
		},
		"CacheHits":      outcomes.With("cache_hit").Value,
		"Allowed":        outcomes.With("allowed").Value,
		"DefaultAllowed": outcomes.With("default_allowed").Value,
		"Denied":         outcomes.With("denied").Value,
		"RevokeNotices":  counter("wanac_host_revoke_flushes_total"),
		"QueryRounds":    counter("wanac_host_query_rounds_total"),
		"QueryTimeouts":  counter("wanac_host_query_timeouts_total"),
		"BusyReplies":    counter("wanac_host_busy_replies_total"),
		"Backoffs":       counter("wanac_host_backoffs_total"),
	})

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
		s := hostLatency(reg, c.outcome)
		if s.Count != c.count {
			t.Errorf("latency[%s].Count = %d, want %d", outcomeNames[c.outcome], s.Count, c.count)
		}
		if s.Sum != c.sum {
			t.Errorf("latency[%s].Sum = %v, want %v", outcomeNames[c.outcome], s.Sum, c.sum)
		}
	}

	// The cache hit's metrics are derived from its one count and read like
	// any other: per reason, per bucket, and in the exposition.
	if got := ReasonCounts(reg)[flight.ReasonCacheHit]; got != st.CacheHits {
		t.Errorf("wanac_host_check_reasons_total{cache_hit} = %d, want %d", got, st.CacheHits)
	}
	if s := hostLatency(reg, outcomeCacheHit); s.Counts[0] != 1 {
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

// TestHostTraceReconstructsCheckRound follows one two-round check through
// the records it leaves under its trace ID: the trace events (what a
// journal's protocol window keeps) and the decision record.
func TestHostTraceReconstructsCheckRound(t *testing.T) {
	env := newFakeEnv()
	col := trace.NewCollector()
	h := NewHost("h0", env, col, nil)
	rec := flight.NewRecorder("h0", 16, env.Now)
	InstrumentHost(telemetry.NewRegistry(), rec, h)
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

	var got []string
	var born, decided time.Time
	for e := range col.All() {
		if e.Trace != q1.Trace {
			continue
		}
		got = append(got, e.Type.String()+" "+e.Note())
		if born.IsZero() {
			born = e.Time
		}
		decided = e.Time
	}
	want := []string{
		"query-sent round=1 managers=1",
		"query-timeout round=1",
		"query-sent round=2 managers=2",
		"grant-cached confirmations=1",
		"access-allowed quorum",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("events of trace %d:\n%s\nwant:\n%s", q1.Trace, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if d := decided.Sub(born); d != 1100*time.Millisecond {
		t.Errorf("first query to decision = %v, want 1.1s", d)
	}
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("audit records = %+v, want one decision", recs)
	}
	if dec := recs[0]; dec.Trace != q1.Trace || dec.Reason != flight.ReasonQuorumAllow ||
		dec.Attempts != 2 || dec.Managers != "m1" || !dec.T.Equal(decided) {
		t.Errorf("decision record = %+v", dec)
	}

	// The cache-hit fast path gets its own trace ID, on its event and its
	// audit record alike.
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	hit := rec.Snapshot()[1]
	if hit.Reason != flight.ReasonCacheHit || hit.Trace == 0 || hit.Trace == q1.Trace {
		t.Fatalf("cache-hit record = %+v, want a fresh non-zero trace", hit)
	}
	evs := col.Events()
	if last := evs[len(evs)-1]; last.Type != trace.EventCacheHit || last.Trace != hit.Trace {
		t.Fatalf("cache-hit event = %+v, want trace %d", last, hit.Trace)
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
	InstrumentManager(reg, nil, m)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
		ClockBound: 0.5, UpdateRetry: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// App b sheds its second query in an interval, and the adaptive-Te
	// controller widens Te at the end of an interval that shed.
	if err := m.AddApp("b", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Second, ClockBound: 0.5,
		Overload: OverloadConfig{
			RateLimit:  RateLimitConfig{AppRPS: 1, AppBurst: 1},
			AdaptiveTe: AdaptiveTeConfig{Max: 3 * time.Second, Interval: time.Minute},
		},
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

	// App b: one query served, one shed, and the controller tick widens Te.
	m.HandleMessage("h9", wire.Query{App: "b", User: "alice", Right: wire.RightUse, Nonce: 9})
	m.HandleMessage("h9", wire.Query{App: "b", User: "alice", Right: wire.RightUse, Nonce: 10})
	env.advance(time.Minute)
	// A recovering manager declines queries as frozen until it has synced.
	m.Recover()
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 11})

	st := m.Stats()
	if st.QueriesServed != 3 || st.QueriesFrozen != 1 || st.QueriesShed != 1 || st.TeWidenings != 1 ||
		st.UpdatesIssued != 1 || st.UpdatesApplied != 1 || st.UpdatesStale != 1 || st.QuorumsReached != 1 {
		t.Fatalf("ManagerStats = %+v", st)
	}
	queries := reg.CounterVec("wanac_manager_queries_total", "", "result")
	updates := reg.CounterVec("wanac_manager_updates_total", "", "disposition")
	checkFamilies(t, st, map[string]func() uint64{
		"QueriesServed":  queries.With("served").Value,
		"QueriesFrozen":  queries.With("frozen").Value,
		"QueriesShed":    queries.With("shed").Value,
		"TeWidenings":    reg.Counter("wanac_manager_te_widenings_total", "").Value,
		"UpdatesIssued":  updates.With("issued").Value,
		"UpdatesApplied": updates.With("applied").Value,
		"UpdatesStale":   updates.With("stale").Value,
		"QuorumsReached": reg.Counter("wanac_manager_update_quorums_total", "").Value,
	})

	// Quorum latency: exactly one observation of 0.5s virtual time.
	if s := reg.Histogram("wanac_manager_update_quorum_latency_seconds", "", nil).Snapshot(); s.Count != 1 || s.Sum != 0.5 {
		t.Errorf("quorum latency count=%d sum=%v, want 1, 0.5", s.Count, s.Sum)
	}
	// Revocation propagation: the notice is created when the revoke is
	// applied locally (submit time), and the host's ack arrives 750ms of
	// virtual time later (500ms to quorum + 250ms to ack).
	lag := reg.Histogram("wanac_manager_revocation_propagation_seconds", "", nil)
	if s := lag.Snapshot(); s.Count != 1 || s.Sum != 0.75 {
		t.Errorf("revocation lag count=%d sum=%v, want 1, 0.75", s.Count, s.Sum)
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
