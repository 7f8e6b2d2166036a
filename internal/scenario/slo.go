package scenario

import (
	"time"

	"wanac/internal/harness"
	"wanac/internal/sim"
	"wanac/internal/slo"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// Scenario SLO evaluation: every run carries a telemetry registry
// (Result.Telemetry) and an slo.Engine sampled on the sim clock, so the
// catalog doubles as an SLO regression suite. Its check SLOs are the ones
// acmon evaluates against a live fleet, built by the one slo.CheckSpecs,
// with windows scaled from operations time (5m/1h) to scenario time.
const (
	// sloSampleEvery is the engine sampling cadence on the sim clock.
	sloSampleEvery = 5 * time.Second
	// sloFastWindow/sloSlowWindow are the burn-rate windows. A scenario
	// lasts minutes, not days, so the workbook's 5m/1h pair scales down to
	// 20s/60s — short enough to fire inside a 55s flood and to clear
	// during the settle tail.
	sloFastWindow = 20 * time.Second
	sloSlowWindow = 60 * time.Second
	// sloFastBurn/sloSlowBurn are the firing thresholds: fast window
	// burning ≥6× budget AND slow window ≥3× budget.
	sloFastBurn = 6
	sloSlowBurn = 3
)

// SLOReport is one SLO's final state after a run, plus every alert edge.
type SLOReport struct {
	Name           string
	Objective      float64
	SLI            float64
	BudgetConsumed float64
	Firing         bool
	Fired          int
	Alerts         []SLOAlert
}

// SLOAlert is one burn-rate alert transition at an offset from run start.
type SLOAlert struct {
	At     time.Duration
	Firing bool
}

// sloSpecs builds the scenario SLO set against the run's registry: the
// shared check SLOs (slo.CheckSpecs), read from the registry's families
// in place, plus the prober's revocation lag and, under the
// finite-capacity model, the per-lane queue drops.
func (r *runtime) sloSpecs(reg *telemetry.Registry) []slo.Spec {
	base := slo.Spec{
		Window:     sloSlowWindow,
		FastWindow: sloFastWindow,
		SlowWindow: sloSlowWindow,
		FastBurn:   sloFastBurn,
		SlowBurn:   sloSlowBurn,
	}
	specs := slo.CheckSpecs(base, r.sc.policy().QueryTimeout, func() slo.Source { return reg })

	// revocation-lag: the black-box prober's view. measureLag feeds one
	// observation per probe sweep (the lag so far, right-censored while
	// hosts still confirm), so a slow-converging revocation produces a
	// stream of bad events rather than one. The threshold holds observed
	// lag to a tenth of the configured base Te (bucket-clamped): quiet
	// sweeps converge in one RTT-bound round, overload pushes repeated
	// sweeps past it.
	revocationLag := base
	revocationLag.Name = "revocation-lag"
	revocationLag.Objective = 0.9
	revocationLag.Indicator = slo.Latency(r.sc.te().Seconds()/10, r.probeHist.Snapshot)
	specs = append(specs, revocationLag)

	// lane-drops: admitted fraction of arrivals per manager queue lane,
	// only meaningful under the finite-capacity model.
	if r.sc.Capacity.ServiceTime > 0 {
		for _, lane := range []wire.Lane{wire.LaneBulk, wire.LaneHigh} {
			lane := lane
			sp := base
			sp.Name = "lane-drops-" + lane.String()
			sp.Objective = 0.95
			sp.Indicator = slo.Ratio(func() (float64, float64) {
				var admitted, dropped uint64
				for i := 0; i < r.sc.Topology.Managers(); i++ {
					if st, ok := r.W.Net.CapacityStats(sim.ManagerID(i)); ok {
						admitted += st.Enqueued[lane]
						dropped += st.Dropped[lane]
					}
				}
				return float64(admitted), float64(admitted + dropped)
			})
			specs = append(specs, sp)
		}
	}
	return specs
}

// setupSLO wires the engine to the run: a baseline sample at t0, then
// one sample every sloSampleEvery through the settle tail. Sampling only
// reads counters — it consumes no randomness and sends no messages, so
// it cannot perturb the run's determinism.
func (r *runtime) setupSLO(reg *telemetry.Registry) *slo.Engine {
	engine := slo.NewEngine(r.W.Sched.Now, r.sloSpecs(reg)...)
	engine.Register(reg)
	engine.Sample()
	for at := sloSampleEvery; at <= r.sc.Duration+harness.Settle; at += sloSampleEvery {
		r.W.Sched.After(at, func() { engine.Sample() })
	}
	return engine
}

// gatherSLO folds the engine's final state into the result, with alert
// times rebased to offsets from run start.
func (r *runtime) gatherSLO(engine *slo.Engine) {
	for _, st := range engine.Status() {
		r.res.SLO = append(r.res.SLO, SLOReport{
			Name:           st.Name,
			Objective:      st.Objective,
			SLI:            st.SLI,
			BudgetConsumed: st.BudgetConsumed,
			Firing:         st.Firing,
			Fired:          st.Fired,
		})
	}
	index := make(map[string]int, len(r.res.SLO))
	for i := range r.res.SLO {
		index[r.res.SLO[i].Name] = i
	}
	for _, tr := range engine.Transitions() {
		if i, ok := index[tr.Name]; ok {
			r.res.SLO[i].Alerts = append(r.res.SLO[i].Alerts, SLOAlert{At: tr.At.Sub(r.start), Firing: tr.Firing})
		}
	}
}
