package wanac

// Tier-1 allocation budgets for the steady-state hot paths. These are
// regression fences, not aspirations: each budget is the measured cost of
// the current implementation, and any increase means a pooled or reused
// object started escaping again. The per-package tests pin wire.Size and
// Network.Send at zero; this file pins the end-to-end cached check — which
// invokes its callback directly and builds its one ring record in place, so
// it allocates nothing with any combination of observers — the ring writes
// checks are made of, the two halves of a cold check: a manager serving a query
// and a host taking a round to quorum, a simulated revocation and re-grant,
// and what a world costs to build before it has recorded anything.
//
// A ring allocates its slots as records arrive, a dozen allocations on the
// way to its capacity and none after. AllocsPerRun reports whole objects per
// run, so those few over hundreds of runs read 0: the budgets below are the
// steady state's.

import (
	"runtime"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

func TestCacheHitCheckAllocationBudget(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:  core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:   []wire.UserID{"u"},
		NoTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("warm-up check failed")
	}
	nop := func(core.Decision) {}
	host, app := w.Hosts[0], w.Cfg.App
	allocs := testing.AllocsPerRun(500, func() {
		host.Check(app, "u", wire.RightUse, nop)
	})
	if allocs > 0 {
		t.Errorf("cached check allocates %.1f objects/op, budget is 0", allocs)
	}
}

// TestCacheHitCheckAllocationBudgetInstrumented re-runs the cached-check
// budget with full metrics telemetry attached (counters, latency
// histograms, per-node gauges — the acnode wiring). Instrumentation must
// ride the hot path for free: handles are resolved once at setup and
// updates are plain atomics, so the budget stays 0.
func TestCacheHitCheckAllocationBudgetInstrumented(t *testing.T) {
	reg := telemetry.NewRegistry()
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:    core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:     []wire.UserID{"u"},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("warm-up check failed")
	}
	nop := func(core.Decision) {}
	host, app := w.Hosts[0], w.Cfg.App
	allocs := testing.AllocsPerRun(500, func() {
		host.Check(app, "u", wire.RightUse, nop)
	})
	if allocs > 0 {
		t.Errorf("instrumented cached check allocates %.1f objects/op, budget is 0", allocs)
	}
	if n := reg.CounterVec("wanac_host_checks_total", "", "outcome").With("cache_hit").Value(); n < 500 {
		t.Errorf("cache_hit counter = %d, want >= 500 (instrumentation active)", n)
	}
}

// TestCacheHitCheckAllocationBudgetWithFlight re-runs the cached-check
// budget on a host wired as acnode wires one: the telemetry bridge over a
// flight tee (the always-on production configuration). The ring keeps
// protocol history: the warm-up's query round is recorded, the hits pass the
// tee without touching the ring, and the budget stays 0.
func TestCacheHitCheckAllocationBudgetWithFlight(t *testing.T) {
	env := &stubEnv{now: time.Unix(1000, 0)}
	rec := flight.NewRecorder("h0", 1024, env.Now)
	h := core.NewHost("h0", env, telemetry.InstrumentTracer(telemetry.NewRegistry(), flight.Tee(rec, nil)), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	warm := false
	h.Check("app", "u", wire.RightUse, func(d core.Decision) { warm = d.Allowed })
	q := env.query
	resp := wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: true, Expire: time.Minute, Trace: q.Trace}
	h.HandleMessage("m0", resp)
	h.HandleMessage("m1", resp)
	if !warm {
		t.Fatal("warm-up check failed")
	}
	if rec.Total() == 0 {
		t.Fatal("flight recorder not recording the warm-up round")
	}
	before := rec.Total()
	nop := func(core.Decision) {}
	allocs := testing.AllocsPerRun(500, func() {
		h.Check("app", "u", wire.RightUse, nop)
	})
	if allocs > 0 {
		t.Errorf("flight-recorded cached check allocates %.1f objects/op, budget is 0", allocs)
	}
	if n := rec.Total() - before; n != 0 {
		t.Errorf("cached checks wrote %d flight records, want none", n)
	}
}

// TestCacheHitCheckAllocationBudgetWithAudit re-runs the cached-check
// budget with the audit recorder attached. The decision record is built in
// its ring slot from evidence already in hand, so provenance —
// like flight recording — rides the hot path for free and the budget stays
// 0.
func TestCacheHitCheckAllocationBudgetWithAudit(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:    core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:     []wire.UserID{"u"},
		NoTrace:   true,
		AuditRing: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("warm-up check failed")
	}
	nop := func(core.Decision) {}
	host, app := w.Hosts[0], w.Cfg.App
	allocs := testing.AllocsPerRun(500, func() {
		host.Check(app, "u", wire.RightUse, nop)
	})
	if allocs > 0 {
		t.Errorf("audited cached check allocates %.1f objects/op, budget is 0", allocs)
	}
	if rec := w.Audits[sim.HostID(0)]; rec == nil || rec.Total() < 500 {
		t.Error("audit recorder not attached or not recording on the cached path")
	}
}

// TestRingRecordAllocationBudget pins the ring writes checks are built from
// at zero on their own: a flight-recorded trace event, a general audit
// record, and the in-slot cache-hit audit record that is a hit's one record.
func TestRingRecordAllocationBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	fl := flight.NewRecorder("h0", 64, nil)
	ev := trace.Event{Time: now, Node: "h0", Type: trace.EventCacheHit, App: "app", User: "u", Trace: 7}
	aud := audit.NewRecorder("h0", 64, nil)
	rec := audit.Record{Kind: audit.KindDecision, T: now, App: "app", User: "u", Right: "use",
		Reason: audit.ReasonCacheHit, Allowed: true, Granters: 2}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"flight.RecordEvent", func() { fl.RecordEvent(ev) }},
		{"audit.Record", func() { aud.Record(rec) }},
		{"audit.RecordCacheHit", func() { aud.RecordCacheHit(now, 7, "app", "u", "use", 2, now) }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.fn); allocs > 0 {
			t.Errorf("%s allocates %.1f objects/op, budget is 0", c.name, allocs)
		}
	}
}

// TestWorldBuildByteBudget pins what a world costs before it has recorded
// anything: the live workloads' shape (3 managers, 2 hosts) with every node's
// flight and audit ring on at 8192 records. Rings allocated up front made
// this 19 MB, which every one of a sweep's worlds paid whether its nodes
// recorded a hundred records or ten thousand.
func TestWorldBuildByteBudget(t *testing.T) {
	const builds, budget = 10, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		_, err := sim.Build(sim.Config{
			Managers: 3, Hosts: 2,
			Policy:     core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
			Users:      []wire.UserID{"u"},
			FlightRing: 8192,
			AuditRing:  8192,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > budget {
		t.Errorf("sim.Build allocates %d bytes, budget is %d", per, budget)
	}
}

// stubEnv is the smallest core.Env: a settable clock, a Send that keeps the
// last query, timers that never fire — or, with afterFunc, real
// time.AfterFunc timers that tests make too long to fire.
type stubEnv struct {
	now       time.Time
	query     wire.Query
	afterFunc bool
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return true }

func (e *stubEnv) Now() time.Time { return e.now }
func (e *stubEnv) Send(_ wire.NodeID, msg wire.Message) {
	if q, ok := msg.(wire.Query); ok {
		e.query = q
	}
}
func (e *stubEnv) SetTimer(d time.Duration, fn func()) core.TimerHandle {
	if e.afterFunc {
		return time.AfterFunc(d, fn)
	}
	return stubTimer{}
}

// TestManagerQueryAllocationBudget pins a served query — trace events into
// a flight ring and a response audit record attached, the host already in
// the user's record — at the one object it cannot avoid: the Response boxed
// for Send. The verdict, the grant bookkeeping, the served note and the
// audit record allocate nothing.
func TestManagerQueryAllocationBudget(t *testing.T) {
	env := &stubEnv{now: time.Unix(1000, 0)}
	m := core.NewManager("m0", env, flight.Tee(flight.NewRecorder("m0", 64, nil), nil), nil)
	if err := m.AddApp("app", core.ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1", "m2"}, CheckQuorum: 2, Te: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("app", "u", wire.RightUse)
	m.SetAudit(audit.NewRecorder("m0", 64, nil))
	var q wire.Message = wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Trace: 1}
	m.HandleMessage("h0", q)
	allocs := testing.AllocsPerRun(500, func() { m.HandleMessage("h0", q) })
	if allocs > 1 {
		t.Errorf("served query allocates %.1f objects/op, budget is 1 (the boxed Response)", allocs)
	}
	if st := m.Stats(); st.QueriesServed < 500 {
		t.Errorf("QueriesServed = %d, want >= 500", st.QueriesServed)
	}
}

// TestColdCheckAllocationBudget pins one full cold round at C = 2 on the
// host, observers attached as above: a check whose entry has expired, two
// queries out, two grants in, the right cached, the callback fired. The one
// object is the Query, boxed once for both sends; the check struct and its
// timer callback are recycled, the confirming set is a bitmask, the cache
// entry stores a bitmask over its application's granters, and notes, audit
// evidence and the callback queue are reused. (A transport adds what it
// decodes: the boxed Responses and their strings.) On this Env, whose
// handles cannot be re-armed, each round takes a fresh SetTimer handle that
// costs nothing.
func TestColdCheckAllocationBudget(t *testing.T) {
	coldRoundBudget(t, &stubEnv{now: time.Unix(1000, 0)})
}

// TestColdCheckAllocationBudgetResetTimer is the same budget on the live
// transports' timers: a check re-arms its one *time.Timer with Reset, so a
// round sets no new timer. The timers are an hour long and never fire.
func TestColdCheckAllocationBudgetResetTimer(t *testing.T) {
	coldRoundBudget(t, &stubEnv{now: time.Unix(1000, 0), afterFunc: true})
}

// TestSimColdCheckAllocationBudget pins a cold check in the simulator, where
// the catalog and every oracle verdict run: a 3-manager, 1-host world whose
// managers serve through the capacity model, one check at C = 2 per run,
// each finding its grant expired. The three objects are the messages boxed
// for sending — the Query and two Responses. The round's timer is re-armed,
// and deliveries and service completions are pooled events.
func TestSimColdCheckAllocationBudget(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:          core.Policy{CheckQuorum: 2, Te: time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:              time.Second,
		Users:           []wire.UserID{"u"},
		NoTrace:         true,
		ManagerCapacity: simnet.Capacity{ServiceTime: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	cb := func(d core.Decision) {
		if d.Allowed && !d.CacheHit {
			cold++
		}
	}
	host, app := w.Hosts[0], w.Cfg.App
	check := func() {
		host.Check(app, "u", wire.RightUse, cb)
		w.RunFor(2 * time.Second) // the round, then past the grant's expiry
	}
	check()
	check()
	cold = 0
	if allocs := testing.AllocsPerRun(500, check); allocs > 3 {
		t.Errorf("simulated cold check allocates %.1f objects/op, budget is 3 (the boxed Query and Responses)", allocs)
	}
	if cold < 500 {
		t.Errorf("%d quorum allows, want >= 500 (checks not cold)", cold)
	}
}

// TestSimRevocationAllocationBudget pins what one revoke plus one re-grant
// allocates in a 3-manager, 2-host world with both hosts holding the user's
// grant: the Update fan-out, the acks, the quorum, a RevokeNotice per vouch
// and the hosts' flushes. The protocol's share is the budget; the share of
// World.Revoke/Grant (the SubmitSync driver's callbacks) is reported apart.
// Both hosts' cold checks, which give the managers someone to notify, are
// measured alone and taken off.
//
// It also holds the revocation's message count to its formula: an Update
// and an UpdateAck per peer manager (every peer, not only the M-C+1 of the
// update quorum) and a RevokeNotice and a RevokeAck per vouch.
func TestSimRevocationAllocationBudget(t *testing.T) {
	const managers, hosts, quorum = 3, 2, 2
	w, err := sim.Build(sim.Config{
		Managers: managers, Hosts: hosts,
		Policy:          core.Policy{CheckQuorum: quorum, Te: time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:              time.Second,
		Users:           []wire.UserID{"u"},
		NoTrace:         true,
		ManagerCapacity: simnet.Capacity{ServiceTime: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	app := w.Cfg.App
	allowed, reached := 0, 0
	onCheck := func(d core.Decision) {
		if d.Allowed {
			allowed++
		}
	}
	onReply := func(r wire.AdminReply) {
		if r.QuorumReached {
			reached++
		}
	}
	revoke := wire.AdminOp{Op: wire.OpRevoke, App: app, User: "u", Right: wire.RightUse, Issuer: w.Cfg.Admin}
	grant := revoke
	grant.Op = wire.OpAdd
	checks := func() {
		for _, h := range w.Hosts {
			h.Check(app, "u", wire.RightUse, onCheck)
		}
		w.RunFor(100 * time.Millisecond)
	}
	settle := func() { w.RunFor(time.Second) } // every ack, notice and retry timer

	// The message formula, on one revocation.
	checks()
	vouches := 0
	for _, h := range w.Hosts {
		vouches += h.CacheGranters(app, "u", wire.RightUse)
	}
	before := w.Net.Stats()
	w.Managers[0].Submit(revoke, onReply)
	settle()
	after := w.Net.Stats()
	if vouches != hosts*quorum {
		t.Fatalf("%d vouches before the revoke, want %d (a grant from C managers on each host)", vouches, hosts*quorum)
	}
	want := map[string]int{
		wire.Update{}.Kind(): managers - 1, wire.UpdateAck{}.Kind(): managers - 1,
		wire.RevokeNotice{}.Kind(): vouches, wire.RevokeAck{}.Kind(): vouches,
	}
	if sent := after.Sent - before.Sent; sent != uint64(2*(managers-1)+2*vouches) {
		t.Errorf("msgs_per_revoke = %d, want 2(M-1) + 2·vouches = %d", sent, 2*(managers-1)+2*vouches)
	}
	for kind, n := range want {
		if got := after.ByKind[kind] - before.ByKind[kind]; got != uint64(n) {
			t.Errorf("revocation sent %d %s, want %d", got, kind, n)
		}
	}
	w.Managers[0].Submit(grant, onReply)
	settle()

	// The allocations: cold checks alone (their grants expire), then the
	// cycle through the async API, then through World's driver.
	cold := testing.AllocsPerRun(300, func() { checks(); w.RunFor(2 * time.Second) })
	allowed, reached = 0, 0
	protocol := testing.AllocsPerRun(300, func() {
		checks()
		w.Managers[0].Submit(revoke, onReply)
		settle()
		w.Managers[0].Submit(grant, onReply)
		settle()
	}) - cold
	if allowed < 2*300 || reached < 2*300 {
		t.Fatalf("%d allows and %d update quorums over 300 cycles, want >= 600 each", allowed, reached)
	}
	driver := testing.AllocsPerRun(300, func() {
		checks()
		w.Revoke(0, "u", time.Minute)
		settle()
		w.Grant(0, "u", time.Minute)
		settle()
	}) - cold - protocol
	t.Logf("revoke + re-grant: protocol %.0f objects, World.Revoke/Grant driver %.0f more", protocol, driver)
	if protocol > 44 {
		t.Errorf("a revoke plus a re-grant allocates %.0f objects beside the driver's %.0f; budget is 44", protocol, driver)
	}
}

func coldRoundBudget(t *testing.T, env *stubEnv) {
	t.Helper()
	h := core.NewHost("h0", env, flight.Tee(flight.NewRecorder("h0", 64, nil), nil), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h.SetAudit(audit.NewRecorder("h0", 64, nil))
	allowed := 0
	cb := func(d core.Decision) {
		if d.Allowed && !d.CacheHit {
			allowed++
		}
	}
	round := func() {
		env.now = env.now.Add(time.Hour) // past the previous grant's limit
		h.Check("app", "u", wire.RightUse, cb)
		q := env.query
		resp := wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: true, Expire: time.Minute, Trace: q.Trace}
		h.HandleMessage("m0", resp)
		h.HandleMessage("m1", resp)
	}
	round()
	round()
	allowed = 0
	allocs := testing.AllocsPerRun(500, round)
	if allocs > 1 {
		t.Errorf("cold round allocates %.1f objects/op, budget is 1 (the boxed Query)", allocs)
	}
	if allowed < 500 {
		t.Errorf("%d quorum allows, want >= 500 (rounds not cold)", allowed)
	}
}
