package wanac

// Tier-1 allocation budgets for the steady-state hot paths. These are
// regression fences, not aspirations: each budget is the measured cost of
// the current implementation, and any increase means a pooled or reused
// object started escaping again. The per-package tests pin wire.Size and
// Network.Send at zero; this file pins the end-to-end cached check — which
// invokes its callback directly and builds its ring records in place, so it
// allocates nothing with any combination of observers — and the two ring
// writes it is made of.

import (
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
// configuration). Recording is one mutex hold and one write of a
// pre-allocated ring slot — no heap allocation — so the budget stays 0.
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
	nop := func(core.Decision) {}
	host, app := w.Hosts[0], w.Cfg.App
	allocs := testing.AllocsPerRun(500, func() {
		host.Check(app, "u", wire.RightUse, nop)
	})
	if allocs > 0 {
		t.Errorf("flight-recorded cached check allocates %.1f objects/op, budget is 0", allocs)
	}
	if rec := w.Flights[sim.HostID(0)]; rec == nil || rec.Total() < 500 {
		t.Error("flight recorder not attached or not recording on the cached path")
	}
}

// TestCacheHitCheckAllocationBudgetWithAudit re-runs the cached-check
// budget with the audit recorder attached. The decision record is built in
// a pre-allocated ring slot from evidence already in hand, so provenance —
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

// TestRingRecordAllocationBudget pins the ring writes the cached check is
// built from at zero on their own: a flight-recorded trace event, a general
// audit record, and the in-slot cache-hit audit record.
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
