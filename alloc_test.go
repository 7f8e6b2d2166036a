package wanac

// Tier-1 allocation budgets for the steady-state hot paths. These are
// regression fences, not aspirations: each budget is the measured cost of
// the current implementation, and any increase means a pooled or reused
// object started escaping again. The per-package tests pin wire.Size and
// Network.Send at zero; this file pins the end-to-end cached check — which
// invokes its callback directly and builds its one ring record in place, so
// it allocates nothing with any combination of observers — the ring writes
// checks are made of, the two halves of a cold check: a manager serving a query
// and a host taking a round to quorum, each on an Env that boxes what it sends
// (1 object) and on one with core.LentSender (none), a whole cold check over
// loopback TCP (9 objects) and in the simulator (none), what a fresh host's
// first cold checks pay for their structs, the events a node emits while
// shedding load, a simulated shed query, a simulated revocation and re-grant
// (none) and the same split by stage on a boxing Env, what a world costs
// to build before it has recorded anything, and a whole catalog pass.
//
// A ring allocates its slots as records arrive, a dozen allocations on the
// way to its capacity and none after. AllocsPerRun reports whole objects per
// run, so those few over hundreds of runs read 0: the budgets below are the
// steady state's.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/netcore"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

func TestCacheHitCheckAllocationBudget(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy: core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:  []wire.UserID{"u"},
		Tracer: trace.Nop{},
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
// budget with the node journal taking decisions. The decision record is
// built in its slot from evidence already in hand, so provenance — like
// protocol recording — rides the hot path for free and the budget stays 0.
func TestCacheHitCheckAllocationBudgetWithAudit(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:    core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:     []wire.UserID{"u"},
		Tracer:    trace.Nop{},
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
	if rec := w.Journals[0]; rec.Node() != string(sim.HostID(0)) || rec.Decisions() < 500 {
		t.Error("journal not attached or not recording on the cached path")
	}
}

// TestRingRecordAllocationBudget pins the journal writes checks are built
// from at zero on their own: a trace event, a general decision record, and
// the in-slot cache-hit record that is a hit's one record.
func TestRingRecordAllocationBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	j := flight.NewRecorder("h0", 64, nil)
	ev := trace.Event{Time: now, Node: "h0", Type: trace.EventCacheHit, App: "app", User: "u", Trace: 7}
	rec := flight.Record{Kind: flight.KindDecision, T: now, App: "app", User: "u", Right: "use",
		Reason: flight.ReasonCacheHit, Allowed: true, Granters: 2}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"RecordEvent", func() { j.RecordEvent(ev) }},
		{"Record", func() { j.Record(rec) }},
		{"RecordCacheHit", func() { j.RecordCacheHit(now, 7, "app", "u", wire.RightUse, 2, time.Minute) }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.fn); allocs > 0 {
			t.Errorf("%s allocates %.1f objects/op, budget is 0", c.name, allocs)
		}
	}
}

// TestWorldBuildByteBudget pins what a world costs before it has recorded
// anything: the live workloads' shape (3 managers, 2 hosts) with every node's
// journal on with windows of 8192 records. Rings allocated up front made
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
// last query, timers that fire only when the test calls fire with the last
// one's callback — or, with afterFunc, real time.AfterFunc timers that tests
// make too long to fire. Its nodes box every message they send, as on the
// live transports.
type stubEnv struct {
	now       time.Time
	query     wire.Query
	fire      func()
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
	e.fire = fn
	return stubTimer{}
}

// typedEnv is stubEnv with core.LentSender, as the simulator's Env has it:
// the messages a node builds in place are lent to the Env, so it boxes none
// of them.
type typedEnv struct{ *stubEnv }

func (e typedEnv) SendLent(_ wire.NodeID, msg wire.Message) {
	if q, ok := msg.(*wire.Query); ok {
		e.query = *q
	}
}

// TestEventEmissionAllocationBudget pins what emitting a protocol event costs
// on the two paths a node walks while shedding load, under each observer
// set a deployment runs: acnode's (the telemetry bridge over a journal tee,
// the journal taking decisions too) and the simulator's warm trace.Collector. A shed query
// allocates its Busy reply, boxed for Send, and nothing on an Env with
// core.LentSender. A host's backoff cycle — a Busy reply that parks its
// check, then the timer that resumes it with a new round — allocates the
// round's Query, boxed for Send, and nothing on a typed Env, so the backoff
// allocates nothing. An event's detail is a peer, a word and a number, so
// emitting one formats no text.
func TestEventEmissionAllocationBudget(t *testing.T) {
	for _, obs := range []struct {
		name   string
		tracer func(node string, env *stubEnv) trace.Tracer
		aud    bool
	}{
		{"acnode", func(node string, env *stubEnv) trace.Tracer {
			return telemetry.InstrumentTracer(telemetry.NewRegistry(), flight.Tee(flight.NewRecorder(node, 64, env.Now), nil))
		}, true},
		{"collector", func(string, *stubEnv) trace.Tracer { return trace.NewCollector() }, false},
	} {
		t.Run(obs.name, func(t *testing.T) {
			for _, typed := range []bool{false, true} {
				emissionBudget(t, obs.tracer, obs.aud, typed)
			}
		})
	}
}

// emissionBudget is one of TestEventEmissionAllocationBudget's observer
// sets, on a boxing or a typed Env.
func emissionBudget(t *testing.T, tracer func(node string, env *stubEnv) trace.Tracer, aud, typed bool) {
	name, want, what := "boxed", 1.0, "the boxed "
	if typed {
		name, want, what = "typed", 0, "nothing, not "
	}
	t.Run(name, func(t *testing.T) {
		stub := &stubEnv{now: time.Unix(1000, 0)}
		env := stubOrTyped(stub, typed)
		m := core.NewManager("m0", env, tracer("m0", stub), nil)
		if err := m.AddApp("app", core.ManagerAppConfig{
			Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute,
			Overload: core.OverloadConfig{RateLimit: core.RateLimitConfig{AppRPS: 1, AppBurst: 1}},
		}); err != nil {
			t.Fatal(err)
		}
		q := wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Trace: 1}
		var boxed wire.Message = q
		query := func() { m.HandleMessage("h0", boxed) }
		if typed {
			query = func() { m.HandleLent("h0", &q) }
		}
		if aud {
			core.InstrumentManager(telemetry.NewRegistry(), flight.NewRecorder("m0", 64, nil), m)
		}
		query() // the bucket's one token; the clock never refills it
		shed := testing.AllocsPerRun(500, query)
		if st := m.Stats(); st.QueriesShed < 500 {
			t.Fatalf("QueriesShed = %d, want >= 500", st.QueriesShed)
		}
		if shed != want {
			t.Errorf("shed query allocates %.1f objects/op, want exactly %.0f (%sBusy)", shed, want, what)
		}

		stub = &stubEnv{now: time.Unix(1000, 0)}
		h := core.NewHost("h0", stubOrTyped(stub, typed), tracer("h0", stub), nil)
		if err := h.RegisterApp("app", core.HostAppConfig{
			Managers: []wire.NodeID{"m0", "m1", "m2"},
			Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
		}); err != nil {
			t.Fatal(err)
		}
		if aud {
			core.InstrumentHost(telemetry.NewRegistry(), flight.NewRecorder("h0", 64, nil), h)
		}
		h.Check("app", "u", wire.RightUse, func(core.Decision) { t.Error("a parked check was decided") })
		cycle := func() {
			b := wire.Busy{App: "app", Nonce: stub.query.Nonce, RetryAfter: time.Second}
			if typed {
				h.HandleLent("m0", &b)
			} else {
				h.HandleMessage("m0", b)
			}
			stub.fire()
		}
		cycle()
		allocs := testing.AllocsPerRun(500, cycle)
		if st := h.Stats(); st.Backoffs < 500 {
			t.Fatalf("Backoffs = %d, want >= 500", st.Backoffs)
		}
		if allocs != want {
			t.Errorf("backoff cycle allocates %.1f objects/op, want exactly %.0f (%snew round's Query)", allocs, want, what)
		}
	})
}

// stubOrTyped is stub, as typedEnv when typed.
func stubOrTyped(stub *stubEnv, typed bool) core.Env {
	if typed {
		return typedEnv{stub}
	}
	return stub
}

// TestManagerQueryAllocationBudget pins a served query — trace events and a
// response record into a journal, the host already in the user's record —
// at the one object a boxing Env cannot avoid: the Response boxed for Send.
// On an Env with core.LentSender it allocates nothing. The verdict, the
// grant bookkeeping, the served note and the response record allocate
// nothing.
func TestManagerQueryAllocationBudget(t *testing.T) {
	for _, typed := range []bool{false, true} {
		stub := &stubEnv{now: time.Unix(1000, 0)}
		j := flight.NewRecorder("m0", 64, nil)
		m := core.NewManager("m0", stubOrTyped(stub, typed), flight.Tee(j, nil), nil)
		if err := m.AddApp("app", core.ManagerAppConfig{
			Peers: []wire.NodeID{"m0", "m1", "m2"}, CheckQuorum: 2, Te: time.Minute,
		}); err != nil {
			t.Fatal(err)
		}
		m.Seed("app", "u", wire.RightUse)
		m.SetAudit(j)
		q := wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Trace: 1}
		var boxed wire.Message = q
		query, want := func() { m.HandleMessage("h0", boxed) }, 1.0
		if typed {
			query, want = func() { m.HandleLent("h0", &q) }, 0
		}
		query()
		allocs := testing.AllocsPerRun(500, query)
		if allocs != want {
			t.Errorf("typed=%v: served query allocates %.1f objects/op, want exactly %.0f", typed, allocs, want)
		}
		if st := m.Stats(); st.QueriesServed < 500 {
			t.Errorf("QueriesServed = %d, want >= 500", st.QueriesServed)
		}
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
	coldRoundBudget(t, &stubEnv{now: time.Unix(1000, 0)}, false)
}

// TestColdCheckAllocationBudgetResetTimer is the same budget on the live
// transports' timers: a check re-arms its one *time.Timer with Reset, so a
// round sets no new timer. The timers are an hour long and never fire.
func TestColdCheckAllocationBudgetResetTimer(t *testing.T) {
	coldRoundBudget(t, &stubEnv{now: time.Unix(1000, 0), afterFunc: true}, false)
}

// TestColdCheckAllocationBudgetTyped is the same round on an Env with
// core.LentSender, the Responses handed to HandleLent as the simulator
// hands them: nothing is boxed, so the round allocates nothing.
func TestColdCheckAllocationBudgetTyped(t *testing.T) {
	coldRoundBudget(t, &stubEnv{now: time.Unix(1000, 0)}, true)
}

// TestSimColdCheckAllocationBudget pins a cold check in the simulator, where
// the catalog and every oracle verdict run: a 3-manager, 1-host world whose
// managers serve through the capacity model, one check at C = 2 per run,
// each finding its grant expired. It allocates nothing: the Query and the
// two Responses ride the network's pooled deliveries and capacity queues by
// value, the round's timer is re-armed, and deliveries and service
// completions are pooled events.
func TestSimColdCheckAllocationBudget(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy:          core.Policy{CheckQuorum: 2, Te: time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:              time.Second,
		Users:           []wire.UserID{"u"},
		Tracer:          trace.Nop{},
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
	if allocs := testing.AllocsPerRun(500, check); allocs != 0 {
		t.Errorf("simulated cold check allocates %.1f objects/op, want exactly 0", allocs)
	}
	if cold < 500 {
		t.Errorf("%d quorum allows, want >= 500 (checks not cold)", cold)
	}
}

// TestColdCheckWarmUpAllocationBudget pins what a fresh host pays for its
// check structs: its first checks are all cold and concurrent, so each
// takes a new struct from an empty free list. A struct costs itself and its
// timer's one bound callback, and its first caller's callback slot is part
// of it; the rest is the host's tables growing, at most 3 objects a check
// in all. On an Env with core.LentSender the Queries are lent.
func TestColdCheckWarmUpAllocationBudget(t *testing.T) {
	const checks = 256
	users := make([]wire.UserID, checks)
	for i := range users {
		users[i] = wire.UserID(fmt.Sprintf("u%03d", i))
	}
	stub := &stubEnv{now: time.Unix(1000, 0)}
	h := core.NewHost("h0", typedEnv{stub}, trace.Nop{}, nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	nop := func(core.Decision) {}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, u := range users {
		h.Check("app", u, wire.RightUse, nop)
	}
	runtime.ReadMemStats(&ms)
	if st := h.Stats(); st.QueryRounds != checks {
		t.Fatalf("%d query rounds, want %d (checks not cold)", st.QueryRounds, checks)
	}
	per := float64(ms.Mallocs-before) / checks
	t.Logf("%.2f objects per cold check", per)
	if per > 3 {
		t.Errorf("a fresh host's first %d cold checks allocate %.2f objects each, budget is 3", checks, per)
	}
}

// TestCatalogPassAllocationBudget pins one pass of BenchmarkCatalogPass's
// four scenarios at seed 1, the work behind sim-catalog's allocs_per_op: the
// worlds, their oracles and journals, and what each simulated decision still
// allocates. The budget is the measured count plus 0.5 % for the runtime's
// own caches, which vary by a few objects from run to run.
func TestCatalogPassAllocationBudget(t *testing.T) {
	const measured = 25422
	scs := catalogPassScenarios(t)
	allocs := testing.AllocsPerRun(1, func() { runCatalogPass(t, scs) })
	t.Logf("a catalog pass allocates %.0f objects", allocs)
	if allocs > measured*1.005 {
		t.Errorf("a catalog pass allocates %.0f objects, budget %d + 0.5 %%", allocs, measured)
	}
}

// TestSimShedAllocationBudget pins a simulated shed query: a manager behind
// the capacity model, its one token spent, answers each Query from a host
// with a Busy, and both ride the network by value to typed handlers, so a
// shed allocates nothing.
func TestSimShedAllocationBudget(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{Seed: 1})
	m := core.NewManager("m0", sim.NewEnv("m0", net), trace.Nop{}, nil)
	if err := m.AddApp("app", core.ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute,
		Overload: core.OverloadConfig{RateLimit: core.RateLimitConfig{AppRPS: 1e-9, AppBurst: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	net.Attach("m0", m)
	net.SetCapacity("m0", simnet.Capacity{ServiceTime: time.Millisecond})
	host := &busyCounter{}
	net.Attach("h0", host)
	q := wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Trace: 1}
	query := func() {
		net.Node("h0").Lend("m0", &q)
		sched.Run(0)
	}
	query() // the bucket's one token
	query()
	allocs := testing.AllocsPerRun(500, query)
	if st := m.Stats(); st.QueriesShed < 501 || host.busy < 501 {
		t.Fatalf("%d queries shed and %d Busy replies delivered, want >= 501 each", st.QueriesShed, host.busy)
	}
	if allocs != 0 {
		t.Errorf("simulated shed query allocates %.1f objects/op, want exactly 0", allocs)
	}
}

// busyCounter is a simulated host that counts the Busy replies it is lent.
type busyCounter struct{ busy int }

func (c *busyCounter) HandleMessage(wire.NodeID, wire.Message) {}
func (c *busyCounter) HandleLent(_ wire.NodeID, msg wire.Message) {
	if _, ok := msg.(*wire.Busy); ok {
		c.busy++
	}
}

// TestTCPColdCheckAllocationBudget pins a cold check over loopback TCP end
// to end: 3 managers and 1 host, each behind its own transport from Listen,
// no observers, one check at C = 2 per run for a distinct seeded user whose
// grant has expired. Every user is checked once first, so the host's cache
// and each manager's vouch lists already hold a record to reuse. The 9
// objects are the 4 decoded messages boxed, the 2 Responses and the Query
// boxed for Send, and the user ids of the 2 Queries, which the managers'
// decoders copy; a Response's user id is lent from its frame.
func TestTCPColdCheckAllocationBudget(t *testing.T) {
	const users, budget = 4096, 9
	listen := func(id NodeID) Transport {
		tr, err := Listen("tcp", id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	ids := []NodeID{"m0", "m1", "m2"}
	seeded := make([]UserID, users)
	for i := range seeded {
		seeded[i] = UserID(fmt.Sprintf("u%04d", i))
	}
	hostNode := listen("h0")
	for _, id := range ids {
		tr := listen(id)
		m := NewManager(id, tr, nil, nil)
		if err := m.AddApp("app", ManagerAppConfig{Peers: ids, CheckQuorum: 2, Te: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		for _, u := range seeded {
			m.Seed("app", u, RightUse)
		}
		tr.SetHandler(m)
		if err := hostNode.AddPeer(id, tr.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	host := NewHost("h0", hostNode, nil, nil)
	if err := host.RegisterApp("app", HostAppConfig{
		Managers: ids,
		Policy:   Policy{CheckQuorum: 2, Te: time.Millisecond, QueryTimeout: time.Minute, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	hostNode.SetHandler(host)
	done := make(chan Decision, 1)
	cb := func(d Decision) { done <- d }
	cold, next := 0, 0
	check := func() {
		host.Check("app", seeded[next%users], RightUse, cb)
		next++
		if d := <-done; d.Allowed && !d.CacheHit && d.Confirmations == 2 {
			cold++
		}
	}
	for range users {
		check()
	}
	cold = 0
	allocs := testing.AllocsPerRun(3000, check)
	if cold != 3001 {
		t.Fatalf("%d of 3001 checks were quorum allows, want all (checks not cold)", cold)
	}
	if allocs != budget {
		t.Errorf("cold TCP check allocates %.3f objects/op, want exactly %d", allocs, budget)
	}
}

// TestLentResponseUser feeds a host, wired as acnode wires one (the
// telemetry bridge over a journal tee, the journal taking decisions too),
// Responses decoded by a transport's netcore.FrameDecoder, and overwrites
// each frame once HandleMessage returns, as the transport's next read does. A Response's user
// id is a view of its frame, so nothing the host keeps may be it: the
// decision, the cache entry and the journal's records still name the user
// the check asked about. A reply to a stale or forged round then costs
// its box alone, so an attacker's choice of user ids allocates nothing at
// the host.
func TestLentResponseUser(t *testing.T) {
	env := &stubEnv{now: time.Unix(1000, 0)}
	j := flight.NewRecorder("h0", 256, env.Now)
	reg := telemetry.NewRegistry()
	h := core.NewHost("h0", env, telemetry.InstrumentTracer(reg, flight.Tee(j, nil)), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	core.InstrumentHost(reg, j, h)

	var dec netcore.FrameDecoder
	buf := make([]byte, 0, 256)
	deliver := func(frame []byte) {
		buf = append(buf[:0], frame...)
		from, msgs, err := dec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			h.HandleMessage(from, m)
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
	}
	encode := func(from wire.NodeID, m wire.Message) []byte {
		frame, err := netcore.EncodeFrame(from, m, netcore.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	const user = "alice"
	var got []core.Decision
	h.Check("app", user, wire.RightUse, func(d core.Decision) { got = append(got, d) })
	q := env.query
	for _, from := range []wire.NodeID{"m0", "m1"} {
		deliver(encode(from, wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce,
			Granted: true, Expire: time.Minute, Trace: q.Trace}))
	}
	h.Check("app", user, wire.RightUse, func(d core.Decision) { got = append(got, d) })
	if len(got) != 2 || !got[0].Allowed || got[0].Confirmations != 2 || !got[1].CacheHit {
		t.Fatalf("decisions = %+v, want a quorum allow by 2, then a cache hit", got)
	}
	if n := h.Stats().CacheLen; n != 1 || h.CacheGranters("app", user, wire.RightUse) != 2 {
		t.Errorf("cache holds %d entries, want one for %s vouched for by 2", n, user)
	}
	decisions := 0
	for _, r := range j.Snapshot() {
		if r.User != user {
			t.Errorf("%s record %s names user %q, want %q", r.Kind, r.Type, r.User, user)
		}
		if r.Kind == flight.KindDecision {
			decisions++
		}
	}
	if decisions != 2 || j.Total() == 2 {
		t.Errorf("%d decision records of %d in the journal, want 2 and protocol records", decisions, j.Total())
	}

	// Replies to a stale round (a nonce nothing waits on) and to a pending
	// round under a forged user id, each id new to the host.
	h.Check("app", "bob", wire.RightUse, func(d core.Decision) { t.Errorf("bob decided: %+v", d) })
	pending := env.query.Nonce
	var frames [][]byte
	for i := range 1001 {
		nonce := pending
		if i%2 == 0 {
			nonce = q.Nonce
		}
		frames = append(frames, encode("m0", wire.Response{App: "app", User: wire.UserID(fmt.Sprintf("forged%04d", i)),
			Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute}))
	}
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		deliver(frames[next])
		next++
	})
	if allocs != 1 {
		t.Errorf("a stale or forged Response allocates %.3f objects, want exactly 1 (its box)", allocs)
	}
}

// TestLentCheckMessages hands a manager a Query and a host two Responses
// through the typed handlers, the simulator's delivery, and overwrites each
// struct once its handler returns, as the network's next use of a pooled
// event does. Nothing a node keeps may point into them: the decision, the
// host's cache, the manager's grant bookkeeping (which a revocation's notice
// reads) and both journals still name the user and host the check was about.
func TestLentCheckMessages(t *testing.T) {
	const user, forged = "alice", "mallory"
	net := &queueNet{now: time.Unix(1000, 0)}
	hj, mj := flight.NewRecorder("h0", 256, nil), flight.NewRecorder("m0", 256, nil)
	h := core.NewHost("h0", net.env("h0"), flight.Tee(hj, nil), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h.SetAudit(hj)
	m := core.NewManager("m0", net.env("m0"), flight.Tee(mj, nil), nil)
	if err := m.AddApp("app", core.ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute}); err != nil {
		t.Fatal(err)
	}
	m.SetAudit(mj)
	m.Seed("app", user, wire.RightUse)
	m.Seed("app", "admin", wire.RightManage)

	// take removes the first queued message to to.
	take := func(to wire.NodeID) wire.Message {
		for i, q := range net.queue {
			if q.to == to {
				net.queue = append(net.queue[:i], net.queue[i+1:]...)
				return q.msg
			}
		}
		t.Fatalf("nothing queued to %s", to)
		return nil
	}
	var got []core.Decision
	h.Check("app", user, wire.RightUse, func(d core.Decision) { got = append(got, d) })
	lentQ := new(wire.Query)
	*lentQ = take("m0").(wire.Query)
	m.HandleLent("h0", lentQ)
	*lentQ = wire.Query{App: "app", User: forged, Right: wire.RightUse, Nonce: lentQ.Nonce + 1, Trace: 7}
	resp := take("h0").(wire.Response)
	for _, from := range []wire.NodeID{"m0", "m1"} {
		lentR := new(wire.Response)
		*lentR = resp
		h.HandleLent(from, lentR)
		*lentR = wire.Response{App: "app", User: forged, Right: wire.RightUse, Nonce: resp.Nonce}
	}
	if len(got) != 1 || !got[0].Allowed || got[0].Confirmations != 2 {
		t.Fatalf("decisions = %+v, want one quorum allow by 2", got)
	}
	if n := h.Stats().CacheLen; n != 1 || h.CacheGranters("app", user, wire.RightUse) != 2 {
		t.Errorf("cache holds %d entries, want one for %s vouched for by 2", n, user)
	}

	// The manager's vouch for h0 is what its revocation notifies.
	m.Submit(wire.AdminOp{Op: wire.OpRevoke, App: "app", User: user, Right: wire.RightUse, Issuer: "admin"}, nil)
	notice, ok := take("h0").(wire.RevokeNotice)
	if !ok || notice.User != user {
		t.Errorf("revocation sent h0 %+v, want a RevokeNotice for %s", notice, user)
	}
	kinds := map[flight.Kind]int{}
	for _, j := range []*flight.Recorder{hj, mj} {
		for _, r := range j.Snapshot() {
			if r.Kind != flight.KindDecision && r.Kind != flight.KindResponse {
				continue
			}
			kinds[r.Kind]++
			if r.User != user {
				t.Errorf("%s record %s names user %q, want %q", r.Kind, r.Type, r.User, user)
			}
			if r.Kind == flight.KindResponse && r.Peer != "h0" {
				t.Errorf("response record names host %q, want h0", r.Peer)
			}
		}
	}
	if kinds[flight.KindDecision] != 1 || kinds[flight.KindResponse] != 1 {
		t.Errorf("journals hold %v, want one decision and one response record", kinds)
	}
}

// TestSimRevocationAllocationBudget pins what one revoke plus one re-grant
// allocates in a 3-manager, 2-host world with both hosts holding the user's
// grant: the Update fan-out, the acks, the quorum, a RevokeNotice per vouch
// and the hosts' flushes. The protocol's share is the budget; the share of
// World.Revoke/Grant (the SubmitSync driver's callbacks) is reported apart.
// It allocates nothing: every message is lent and rides the network's
// reused copies, and the update and notice records, their retry timers and
// the withdrawn vouches are reused.
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
		Tracer:          trace.Nop{},
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
	if protocol > 0 {
		t.Errorf("a revoke plus a re-grant allocates %.0f objects beside the driver's %.0f; budget is 0", protocol, driver)
	}
}

// TestRevocationStageAllocationBudget splits a revoke and its re-grant into
// the stages TestSimRevocationAllocationBudget sums: three managers and a host
// on an Env that queues every message for the test to deliver, with the
// allocations of each Submit and each delivery, and of what it sends, charged
// to its stage. The stages are the Submit at the origin, an Update applied at
// a peer, an UpdateAck at the origin (the quorum among them), a RevokeNotice
// at the host (its flush) and a RevokeAck at the manager that sent the notice.
// A cold check puts the grant back in the host's cache before each revoke; it
// is TestColdCheckAllocationBudget's and is not charged.
func TestRevocationStageAllocationBudget(t *testing.T) {
	const cycles = 300
	net := &queueNet{now: time.Unix(1000, 0)}
	members := []wire.NodeID{"m0", "m1", "m2"}
	var managers []*core.Manager
	for _, id := range members {
		m := core.NewManager(id, net.env(id), trace.Nop{}, nil)
		if err := m.AddApp("app", core.ManagerAppConfig{Peers: members, CheckQuorum: 2, Te: time.Minute}); err != nil {
			t.Fatal(err)
		}
		for _, user := range []wire.UserID{"u", "v", "w"} {
			m.Seed("app", user, wire.RightUse)
		}
		m.Seed("app", "admin", wire.RightManage)
		managers = append(managers, m)
		net.nodes = append(net.nodes, m)
	}
	h := core.NewHost("h0", net.env("h0"), trace.Nop{}, nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: members,
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	net.nodes = append(net.nodes, h)
	allowed, reached := 0, 0
	onCheck := func(d core.Decision) {
		if d.Allowed && !d.CacheHit {
			allowed++
		}
	}
	onReply := func(r wire.AdminReply) {
		if r.QuorumReached {
			reached++
		}
	}
	revoke := wire.AdminOp{Op: wire.OpRevoke, App: "app", User: "u", Right: wire.RightUse, Issuer: "admin"}
	grant := revoke
	grant.Op = wire.OpAdd

	mallocs, counts := map[string]uint64{}, map[string]int{}
	var ms runtime.MemStats
	charge := func(stage string, fn func()) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		mallocs[stage] += ms.Mallocs - before
		counts[stage]++
	}
	cycle := func(measure bool) {
		// Past every grant's expiry, three cold checks: the host rotates
		// the first round's managers once per round, so u's always asks
		// the same two, and the same two managers notify it.
		net.now = net.now.Add(time.Hour)
		for _, user := range []wire.UserID{"u", "v", "w"} {
			h.Check("app", user, wire.RightUse, onCheck)
		}
		net.drain(nil)
		for _, op := range []wire.AdminOp{revoke, grant} {
			run := func(stage string, fn func()) {
				if measure {
					charge(op.Op.String()+" "+stage, fn)
				} else {
					fn()
				}
			}
			run("submit", func() { managers[0].Submit(op, onReply) })
			net.drain(run)
		}
	}
	for range 20 {
		cycle(false)
	}
	allowed, reached = 0, 0
	for range cycles {
		cycle(true)
	}
	if allowed != 3*cycles || reached != 2*cycles {
		t.Fatalf("%d cold allows and %d update quorums over %d cycles, want %d and %d", allowed, reached, cycles, 3*cycles, 2*cycles)
	}
	// Objects per stage, pinned at what they measure and counted as
	// AllocsPerRun counts them (whole objects per cycle); each happens once
	// per cycle. m0 and m1 vouched for the host, so each sends it a notice as it
	// applies the revoke; m1's UpdateAck arrives first and reaches the update
	// quorum (M-C+1 = 2 with m0's own). This Env boxes what it sends, so each
	// object left is a message boxed for Send: an Update once for all its
	// peers, a RevokeNotice, an UpdateAck, a RevokeAck. The records, their
	// retry timers, the withdrawn vouches and the quorum's reply are reused.
	want := []struct {
		stage string
		objs  uint64
	}{
		{"revoke submit", 2},               // the Update, m0's RevokeNotice
		{"revoke update m0->m1", 2},        // m1's RevokeNotice, its UpdateAck
		{"revoke update m0->m2", 1},        // the UpdateAck
		{"revoke update-ack m1->m0", 0},    // the quorum
		{"revoke update-ack m2->m0", 0},    // the record recycled
		{"revoke revoke-notice m0->h0", 1}, // the RevokeAck
		{"revoke revoke-notice m1->h0", 1}, // the RevokeAck
		{"revoke revoke-ack h0->m0", 0},
		{"revoke revoke-ack h0->m1", 0},
		{"add submit", 1},            // the Update
		{"add update m0->m1", 1},     // the UpdateAck
		{"add update m0->m2", 1},     // the UpdateAck
		{"add update-ack m1->m0", 0}, // the quorum
		{"add update-ack m2->m0", 0},
	}
	var total uint64
	for _, w := range want {
		got := mallocs[w.stage] / cycles
		total += got
		if counts[w.stage] != cycles {
			t.Errorf("%s happened %d times over %d cycles, want once a cycle", w.stage, counts[w.stage], cycles)
		}
		if got != w.objs {
			t.Errorf("%s allocates %d objects, want %d", w.stage, got, w.objs)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("stages seen: %v, want only the %d listed", counts, len(want))
	}
	t.Logf("revoke + re-grant: %d objects", total)
}

// queueNet routes core nodes' messages through one FIFO the test drains by
// hand, on a clock that stands still; its timers never fire.
type queueNet struct {
	now   time.Time
	nodes []interface {
		ID() wire.NodeID
		HandleMessage(wire.NodeID, wire.Message)
	}
	queue []queued
}

type queued struct {
	from, to wire.NodeID
	msg      wire.Message
}

type queueEnv struct {
	net *queueNet
	id  wire.NodeID
}

func (n *queueNet) env(id wire.NodeID) queueEnv { return queueEnv{n, id} }

func (e queueEnv) Now() time.Time { return e.net.now }
func (e queueEnv) Send(to wire.NodeID, msg wire.Message) {
	e.net.queue = append(e.net.queue, queued{e.id, to, msg})
}
func (queueEnv) SetTimer(time.Duration, func()) core.TimerHandle { return stubTimer{} }

// drain delivers queued messages, oldest first, until none is left, each
// through around (nil: delivered directly) with its message kind.
func (n *queueNet) drain(around func(kind string, deliver func())) {
	for i := 0; i < len(n.queue); i++ {
		q := n.queue[i]
		for _, node := range n.nodes {
			if node.ID() == q.to {
				deliver := func() { node.HandleMessage(q.from, q.msg) }
				if around == nil {
					deliver()
				} else {
					around(q.msg.Kind()+" "+string(q.from)+"->"+string(q.to), deliver)
				}
			}
		}
	}
	clear(n.queue)
	n.queue = n.queue[:0]
}

func coldRoundBudget(t *testing.T, env *stubEnv, typed bool) {
	t.Helper()
	j := flight.NewRecorder("h0", 64, nil)
	h := core.NewHost("h0", stubOrTyped(env, typed), flight.Tee(j, nil), nil)
	if err := h.RegisterApp("app", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy:   core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h.SetAudit(j)
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
		for _, from := range []wire.NodeID{"m0", "m1"} {
			if typed {
				h.HandleLent(from, &resp)
			} else {
				h.HandleMessage(from, resp)
			}
		}
	}
	round()
	round()
	allowed = 0
	allocs := testing.AllocsPerRun(500, round)
	want, what := 1.0, "the boxed Query"
	if typed {
		want, what = 0, "nothing boxed"
	}
	if allocs != want {
		t.Errorf("cold round allocates %.1f objects/op, want exactly %.0f (%s)", allocs, want, what)
	}
	if allowed < 500 {
		t.Errorf("%d quorum allows, want >= 500 (rounds not cold)", allowed)
	}
}
