package core

// Audit-exactness tests: scripted scenarios asserting that the audit
// recorder, HostStats, the reason-labeled telemetry counters and the
// decision trace events agree record for record — the invariant documented
// in audit.go and metrics.go. Evidence fields are pinned exactly so acaudit
// explanations can be trusted.

import (
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

func reasonValue(reg *telemetry.Registry, r flight.Reason) uint64 {
	return reg.CounterVec("wanac_host_check_reasons_total", "", "reason").With(r.String()).Value()
}

// decisionEventOf is the event a decision record's reason is told by.
func decisionEventOf(r flight.Reason) decisionEvent {
	if r == flight.ReasonCacheHit {
		return decisionEvent{typ: trace.EventCacheHit}
	}
	return decisionEvents[r]
}

func TestHostAuditExactness(t *testing.T) {
	env := newFakeEnv()
	col := trace.NewCollector()
	h := NewHost("h0", env, col, nil)
	reg := telemetry.NewRegistry()
	rec := flight.NewRecorder("h0", 64, env.Now)
	InstrumentHost(reg, rec, h)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy: Policy{
			CheckQuorum: 1, QueryTimeout: time.Second,
			MaxAttempts: 2, DefaultAllow: true, Te: time.Minute,
		},
	}); err != nil {
		t.Fatal(err)
	}

	record := func(Decision) {}

	// Same script as TestHostTelemetryExactness: quorum allow, cache hit,
	// default allow after R timed-out rounds, unknown-app deny.
	start := env.Now()
	h.Check("a", "u1", wire.RightUse, record)
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u1", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute,
	})
	h.Check("a", "u1", wire.RightUse, record)
	h.Check("a", "u2", wire.RightUse, record)
	env.advance(3 * time.Second)
	h.Check("ghost", "u3", wire.RightUse, record)

	st := h.Stats()
	if st.Checks != 4 {
		t.Fatalf("Checks = %d, want 4", st.Checks)
	}
	// Completeness: one decision record per completed check, none dropped.
	if rec.Total() != 4 || rec.Decisions() != 4 {
		t.Fatalf("recorder total=%d decisions=%d, want 4/4", rec.Total(), rec.Decisions())
	}

	// The reason counters refine the outcome counters exactly: summed over
	// the reasons of one outcome they equal that outcome's counter.
	outcomes := reg.CounterVec("wanac_host_checks_total", "", "outcome")
	for _, c := range []struct {
		outcome string
		reasons []flight.Reason
	}{
		{"cache_hit", []flight.Reason{flight.ReasonCacheHit}},
		{"allowed", []flight.Reason{flight.ReasonQuorumAllow}},
		{"default_allowed", []flight.Reason{flight.ReasonDefaultAllow, flight.ReasonResolveAllow}},
		{"denied", []flight.Reason{flight.ReasonQuorumDeny, flight.ReasonUnreachableDeny,
			flight.ReasonResolveDeny, flight.ReasonUnregisteredDeny}},
	} {
		var sum uint64
		for _, r := range c.reasons {
			sum += reasonValue(reg, r)
		}
		if got := outcomes.With(c.outcome).Value(); sum != got {
			t.Errorf("reason sum for %s = %d, counter = %d", c.outcome, sum, got)
		}
	}
	if reasonValue(reg, flight.ReasonCacheHit) != 1 ||
		reasonValue(reg, flight.ReasonQuorumAllow) != 1 ||
		reasonValue(reg, flight.ReasonDefaultAllow) != 1 ||
		reasonValue(reg, flight.ReasonUnregisteredDeny) != 1 {
		t.Errorf("per-reason counts off: cache=%d quorum=%d default=%d unreg=%d",
			reasonValue(reg, flight.ReasonCacheHit), reasonValue(reg, flight.ReasonQuorumAllow),
			reasonValue(reg, flight.ReasonDefaultAllow), reasonValue(reg, flight.ReasonUnregisteredDeny))
	}

	recs := rec.Snapshot()

	// 1. Quorum allow: the record cites the granting set, the grant's te,
	// and the §3.2 delay-adjusted expiry (sentAt + te; no delay here).
	qa := recs[0]
	if qa.Reason != flight.ReasonQuorumAllow || !qa.Allowed ||
		qa.App != "a" || qa.User != "u1" || qa.Right != "use" {
		t.Fatalf("quorum-allow record = %+v", qa)
	}
	if qa.Confirmations != 1 || qa.Managers != "m0" || qa.Quorum != 1 ||
		qa.Attempts != 1 || qa.Expire != time.Minute {
		t.Fatalf("quorum-allow evidence = %+v", qa)
	}
	if !qa.Expiry.Equal(start.Add(time.Minute)) {
		t.Fatalf("quorum-allow Expiry = %v, want %v", qa.Expiry, start.Add(time.Minute))
	}
	if qa.Trace == 0 {
		t.Fatal("quorum-allow record has no trace ID")
	}

	// 2. Cache hit: same entry, one vouching manager, expiry = entry limit,
	// fresh trace ID distinct from the quorum round's.
	ch := recs[1]
	if ch.Reason != flight.ReasonCacheHit || !ch.Allowed || ch.Granters != 1 {
		t.Fatalf("cache-hit record = %+v", ch)
	}
	if !ch.Expiry.Equal(qa.Expiry) {
		t.Fatalf("cache-hit Expiry = %v, want entry limit %v", ch.Expiry, qa.Expiry)
	}
	if ch.Trace == 0 || ch.Trace == qa.Trace {
		t.Fatalf("cache-hit trace = %d, want fresh non-zero id (quorum round had %d)", ch.Trace, qa.Trace)
	}

	// 3. Default allow: both attempts exhausted, Figure 4 fallback.
	da := recs[2]
	if da.Reason != flight.ReasonDefaultAllow || !da.Allowed ||
		da.User != "u2" || da.Attempts != 2 {
		t.Fatalf("default-allow record = %+v", da)
	}

	// 4. Unregistered deny: immediate, no protocol exchange.
	ud := recs[3]
	if ud.Reason != flight.ReasonUnregisteredDeny || ud.Allowed ||
		ud.App != "ghost" || ud.Attempts != 0 {
		t.Fatalf("unregistered-deny record = %+v", ud)
	}

	// Every record's Allowed agrees with what its reason statically implies.
	for _, r := range recs {
		if r.Allowed != r.Reason.Allowed() {
			t.Errorf("record %+v: Allowed contradicts reason", r)
		}
	}

	// Each record has exactly one decision event, at its time, for its app,
	// user and trace, of the type and word its reason names (a default
	// allow's note cites its attempts), and no decision event is without
	// its record. Every decision but a cache hit tells its event from
	// decisionEvents.
	isDecision := make(map[trace.EventType]bool)
	for _, r := range flight.DecisionReasons {
		if r != flight.ReasonCacheHit && decisionEvents[r].typ == 0 {
			t.Errorf("decision reason %s has no entry in decisionEvents", r)
		}
		isDecision[decisionEventOf(r).typ] = true
	}
	var events []trace.Event
	for _, e := range col.Events() {
		if isDecision[e.Type] {
			events = append(events, e)
		}
	}
	if len(events) != len(recs) {
		t.Fatalf("%d decision events for %d records: %v", len(events), len(recs), events)
	}
	for _, r := range recs {
		want, n := decisionEventOf(r.Reason), 0
		for _, e := range events {
			if !e.Time.Equal(r.T) || string(e.App) != r.App || string(e.User) != r.User || e.Trace != r.Trace {
				continue
			}
			n++
			if e.Type != want.typ || e.Word != want.word || r.Reason == flight.ReasonDefaultAllow && e.Note() != "attempts=2" {
				t.Errorf("record %s: event %s %q, want %s %q", r.Reason, e.Type, e.Note(), want.typ, want.word)
			}
		}
		if n != 1 {
			t.Errorf("record %s for %s/%s: %d decision events", r.Reason, r.App, r.User, n)
		}
	}
}

func TestHostAuditQuorumDeny(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	rec := flight.NewRecorder("h0", 16, env.Now)
	h.SetAudit(rec)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u1", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	// One explicit denial out of 2 queried with C=2 makes the quorum
	// impossible: 2 - 1 < 2.
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u1", Right: wire.RightUse, Nonce: nonce, Granted: false,
	})
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	qd := recs[0]
	if qd.Reason != flight.ReasonQuorumDeny || qd.Allowed {
		t.Fatalf("record = %+v", qd)
	}
	if qd.Denials != 1 || qd.Queried != 2 || qd.Quorum != 2 {
		t.Fatalf("quorum-deny evidence = %+v", qd)
	}
}

func TestManagerAuditResponses(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	rec := flight.NewRecorder("m0", 16, env.Now)
	m.SetAudit(rec)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
		ClockBound: 0.5, UpdateRetry: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)
	m.Seed("a", "root", wire.RightManage)

	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 7, Trace: 7})
	m.HandleMessage("h9", wire.Query{App: "a", User: "bob", Right: wire.RightUse, Nonce: 8, Trace: 8})
	m.HandleMessage("h9", wire.Query{App: "ghost", User: "x", Right: wire.RightUse, Nonce: 9, Trace: 9})

	// Revoke alice, then re-query: the deny must cite the revoke's seq.
	m.Submit(wire.AdminOp{Op: wire.OpRevoke, App: "a", User: "alice", Right: wire.RightUse, Issuer: "root"},
		func(wire.AdminReply) {})
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 10, Trace: 10})

	recs := rec.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Kind != flight.KindResponse || r.Peer != "h9" {
			t.Fatalf("response record = %+v", r)
		}
	}
	granted := recs[0]
	if granted.Reason != flight.ReasonQueryGranted || granted.Trace != 7 {
		t.Fatalf("granted record = %+v", granted)
	}
	// te = (Te - FreezeTi) * ClockBound per §3.2; with the defaults here
	// the exact value just needs to be positive and at most Te.
	if granted.Expire <= 0 || granted.Expire > time.Minute {
		t.Fatalf("granted Expire = %v, want (0, Te]", granted.Expire)
	}
	if denied := recs[1]; denied.Reason != flight.ReasonQueryDenied || denied.Trace != 8 {
		t.Fatalf("denied record = %+v", denied)
	}
	if unknown := recs[2]; unknown.Reason != flight.ReasonQueryUnknownApp || unknown.App != "ghost" {
		t.Fatalf("unknown-app record = %+v", unknown)
	}
	after := recs[3]
	if after.Reason != flight.ReasonQueryDenied || after.Trace != 10 {
		t.Fatalf("post-revoke record = %+v", after)
	}
	if after.Origin != "m0" || after.Counter != 1 {
		t.Fatalf("post-revoke record cites op %s/%d, want m0/1", after.Origin, after.Counter)
	}
}
