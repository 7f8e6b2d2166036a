package wanac

// Tier-1 allocation budgets for the steady-state hot paths. These are
// regression fences, not aspirations: each budget is the measured cost of
// the current implementation, and any increase means a pooled or reused
// object started escaping again. The per-package tests pin wire.Size and
// Network.Send at zero; this file pins the end-to-end cached check — which
// invokes its callback directly and builds its one ring record in place, so
// it allocates nothing with any combination of observers — the ring writes
// checks are made of, the two halves of a cold check: a manager serving a query
// and a host taking a round to quorum, and what a world costs to build
// before it has recorded anything.
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
// histograms, per-node gauges — the acnode wiring, minus span streaming,
// which allocates by design when enabled). Instrumentation must ride the
// hot path for free: handles are resolved once at setup and updates are
// plain atomics, so the budget stays 0.
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
// budget with the flight recorder attached (the always-on production
// configuration). The ring keeps protocol history: the warm-up's query
// round is recorded, the hits pass the tee without touching the ring, and
// the budget stays 0.
func TestCacheHitCheckAllocationBudgetWithFlight(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:     core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:      []wire.UserID{"u"},
		FlightRing: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("warm-up check failed")
	}
	rec := w.Flights[sim.HostID(0)]
	if rec == nil || rec.Total() == 0 {
		t.Fatal("flight recorder not attached or not recording the warm-up round")
	}
	before := rec.Total()
	nop := func(core.Decision) {}
	host, app := w.Hosts[0], w.Cfg.App
	allocs := testing.AllocsPerRun(500, func() {
		host.Check(app, "u", wire.RightUse, nop)
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
// last query, timers that never fire.
type stubEnv struct {
	now   time.Time
	query wire.Query
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return true }

func (e *stubEnv) Now() time.Time { return e.now }
func (e *stubEnv) Send(_ wire.NodeID, msg wire.Message) {
	if q, ok := msg.(wire.Query); ok {
		e.query = q
	}
}
func (e *stubEnv) SetTimer(time.Duration, func()) core.TimerHandle { return stubTimer{} }

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
// queries out, two grants in, the right cached, the callback fired. The
// three objects are the Query boxed once for both sends, the timeout's
// closure, and the new cache entry's granter set; notes, audit evidence and
// the callback queue are reused. (A transport adds what it decodes: the
// boxed Responses and their strings.)
func TestColdCheckAllocationBudget(t *testing.T) {
	env := &stubEnv{now: time.Unix(1000, 0)}
	h := core.NewHost("h0", env, flight.Tee(flight.NewRecorder("h0", 64, nil), nil), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
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
	if allocs > 3 {
		t.Errorf("cold round allocates %.1f objects/op, budget is 3", allocs)
	}
	if allowed < 500 {
		t.Errorf("%d quorum allows, want >= 500 (rounds not cold)", allowed)
	}
}
