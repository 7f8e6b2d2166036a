package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/harness"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

const (
	// flightRing is the flight dump's window: the records it keeps per node
	// in the replay that makes a failed run's dump.
	flightRing = 4096
	// minRate floors the arrival rate so the sampler never divides by zero.
	minRate = 0.05
	// maxGap bounds one arrival draw so rate ramps (flash crowds) are
	// re-sampled at least once a second. Redrawing after maxGap without an
	// arrival is exact for exponential gaps (memorylessness), so the clamp
	// changes responsiveness, not the distribution.
	maxGap = time.Second
	// lagProbeEvery is the revocation-lag probe interval after a revoke
	// reaches quorum.
	lagProbeEvery = time.Second
)

// Result is the outcome of one scenario run.
type Result struct {
	Name string
	Seed int64
	harness.Outcome
	// Revocations counts admin revocations that reached quorum;
	// RevocationLags holds one convergence measurement per revocation that
	// was observed to converge (time until no host confirms the revoked
	// user), and RevocationLagP99 the distribution's p99 (0 when empty).
	Revocations      int
	RevocationLags   []time.Duration
	RevocationLagP99 time.Duration
	// SubmitLags measures each revocation end to end: admin submit →
	// update quorum → no host still confirming. RevocationLags (above)
	// starts the clock at quorum and is structurally bounded by cache
	// expiry; the submit-to-quorum leg is where an overloaded, unprotected
	// manager set leaks, so this is the distribution the overload
	// experiments compare.
	SubmitLags   []time.Duration
	SubmitLagP99 time.Duration
	// Overload aggregates the overload-protection counters across all
	// nodes at the end of the run (zero when protection is off and the
	// managers have infinite capacity).
	Overload OverloadTotals
	// SLO holds the final state of every scenario SLO (slo.go): windowed
	// SLI, budget consumed, and the burn-rate alert's firing history.
	SLO []SLOReport
	// Audit aggregates decision provenance: exact per-reason decision
	// counts (read from the wanac_host_check_reasons_total counter family,
	// so immune to ring drops) plus the journals' record/drop totals.
	Audit AuditTotals
	// Telemetry is the registry every node of the run was instrumented
	// against, exactly as a live deployment would be. Its metrics read the
	// nodes, so it keeps the run's whole world reachable.
	Telemetry *telemetry.Registry
}

// AuditTotals aggregates the audit subsystem's view of one run.
type AuditTotals struct {
	// Reasons counts completed decisions by audit reason (keyed by the
	// reason's stable name, e.g. "cache_hit"), summed across hosts.
	Reasons map[string]uint64
	// Records counts decision records accepted across every node's
	// journal (decisions and manager responses); Dropped counts those the
	// bounded windows overwrote before the end-of-run dump.
	Records uint64
	Dropped uint64
}

// Summary renders the totals as the transcript's one-line `audit:` field:
// nonzero decision reasons in canonical order, then ring accounting.
func (a AuditTotals) Summary() string {
	var parts []string
	for _, reason := range flight.DecisionReasons {
		if n := a.Reasons[reason.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", reason, n))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "no decisions")
	}
	return fmt.Sprintf("%s (%d records, %d ring drops)",
		strings.Join(parts, " "), a.Records, a.Dropped)
}

// OverloadTotals sums the overload-protection telemetry across nodes.
type OverloadTotals struct {
	// QueriesShed counts manager queries rejected by admission control
	// with a Busy reply; TeWidenings counts adaptive-Te controller
	// intervals that widened the effective bound.
	QueriesShed uint64
	TeWidenings uint64
	// BusyReplies counts Busy replies hosts processed; Backoffs counts
	// host check rounds deferred by the backoff window.
	BusyReplies uint64
	Backoffs    uint64
	// CapacityDrops counts inbound messages dropped at the managers'
	// finite-capacity queues, by wire.Lane (bulk, high).
	CapacityDrops [2]uint64
}

// runtime is the catalog's driver of the harness runner: load curves,
// Zipf traffic, fault windows, admin churn with revocation-lag measurement,
// and SLO sampling. The runner keeps the admin model, judges every check and
// arms the post-quiet availability probes.
type runtime struct {
	*harness.Runner
	sc     *Scenario
	matrix *simnet.Matrix
	rng    *rand.Rand
	smp    *sampler
	users  []wire.UserID // authorized (seeded) users, the churn rotation

	// probeHist is the black-box revocation prober: one observation per
	// measureLag sweep, so the SLO engine sees lag as an event stream.
	probeHist *telemetry.Histogram

	activeFaults int

	// arrival is the load's one timer; redraw says its armed firing ends a
	// maxGap wait rather than delivering an arrival.
	arrival *simnet.Timer
	redraw  bool

	start time.Time
	res   *Result
	churn int
}

// Run executes the scenario with the given seed (0 uses the scenario's
// default). The run is a pure function of (scenario, seed).
func Run(sc *Scenario, seed int64) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = sc.Seed
	}
	r, err := run(sc, seed, 0)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// run is Run for a valid scenario and a seed, returning its runtime, with
// the world keeping its trace log for a flight dump of ring records per node
// when ring > 0.
func run(sc *Scenario, seed int64, ring int) (*runtime, error) {
	pop := sc.Population.withDefaults()
	users := pop.AuthorizedUsers()
	matrix := sc.Topology.Matrix()
	// Every run is instrumented: the SLO engine and the prober histogram
	// read the same families the nodes write.
	reg := telemetry.NewRegistry()
	hr, err := harness.NewRunner("scenario-"+sc.Name, sim.Config{
		App:      "app",
		Managers: sc.Topology.Managers(),
		Hosts:    sc.Topology.Hosts(),
		Policy:   sc.policy(),
		Te:       sc.te(),
		Users:    users,
		Net: simnet.Config{
			LinkLatency: matrix,
			Loss:        sc.Loss,
			Seed:        seed,
		},
		Overload:        sc.Overload,
		ManagerCapacity: sc.Capacity,
		Telemetry:       reg,
		FlightRing:      ring,
	}, sc.Break, sc.CacheLimit, users)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: build world: %w", sc.Name, err)
	}

	r := &runtime{
		Runner: hr,
		sc:     sc,
		matrix: matrix,
		// The load/population stream draws from its own rng so the network's
		// loss/latency draws don't shift which user a check targets.
		rng:   rand.New(rand.NewSource(seed + 1)),
		users: users,
		start: hr.W.Sched.Now(),
		res:   &Result{Name: sc.Name, Seed: seed, Telemetry: reg},
	}
	r.smp = pop.sampler(r.rng, users)
	r.probeHist = reg.Histogram("wanac_probe_revocation_lag_seconds",
		"Black-box prober: revocation lag observed at each probe sweep (right-censored while hosts still confirm).",
		telemetry.DefBuckets)
	engine := r.setupSLO(reg)

	for _, f := range sc.Faults {
		f.schedule(r)
	}
	if sc.AdminEvery > 0 {
		for at := sc.AdminEvery; at < sc.Duration; at += sc.AdminEvery {
			hr.W.Sched.After(at, func() { r.churnOnce() })
		}
	}
	var replay func() *flight.Dump
	if ring == 0 {
		replay = func() *flight.Dump {
			if rr, err := run(sc, seed, flightRing); err == nil {
				return rr.res.FlightDump()
			}
			return nil
		}
	}
	res := r.res
	res.Outcome = r.Run(sc.Duration, r.nextArrival, replay)
	res.RevocationLagP99 = p99(res.RevocationLags)
	res.SubmitLagP99 = p99(res.SubmitLags)
	r.gatherOverload()
	r.gatherAudit(reg)
	r.gatherSLO(engine)
	return r, nil
}

func (r *runtime) now() time.Time { return r.W.Sched.Now() }

// nextArrival schedules the next load arrival at the curve's instantaneous
// rate. Gaps longer than maxGap are split: wait maxGap, then redraw at the
// then-current rate (exact for exponential gaps, and it tracks ramps). The
// run has one arrival timer, re-armed for every draw.
func (r *runtime) nextArrival() {
	elapsed := r.now().Sub(r.start)
	if elapsed >= r.sc.Duration {
		return
	}
	rate := r.sc.Load.Rate(elapsed)
	if rate < minRate {
		rate = minRate
	}
	gap := time.Duration(r.rng.ExpFloat64() / rate * float64(time.Second))
	r.redraw = gap > maxGap
	if r.redraw {
		gap = maxGap
	}
	if r.arrival == nil {
		r.arrival = r.W.Sched.After(gap, r.arrive)
	} else {
		r.arrival.Reset(gap)
	}
}

// arrive is every firing of the arrival timer: a check, unless the firing
// only ends a maxGap wait, then the next draw.
func (r *runtime) arrive() {
	if !r.redraw && r.now().Sub(r.start) < r.sc.Duration {
		r.Check(r.rng.Intn(len(r.W.Hosts)), r.smp.draw(), nil)
	}
	r.nextArrival()
}

// churnOnce revokes the next authorized user in rotation, measures how long
// hosts keep confirming them, then re-grants.
func (r *runtime) churnOnce() {
	user := r.users[r.churn%len(r.users)]
	r.churn++
	submitAt := r.now()
	// Submit to manager 0; the catalog keeps manager 0 outside partitioned
	// regions so churn reaches quorum even mid-fault.
	r.Submit(0, wire.OpRevoke, user, func() {
		r.res.Revocations++
		r.measureLag(user, submitAt, r.now())
	})
}

// measureLag probes every host until none still confirms the revoked user,
// recording the convergence lag (from quorum) and the end-to-end lag (from
// submit), then schedules the re-grant. The probes are judged checks, so a
// host still confirming past the bound is both a lag data point and a
// revocation-safety violation.
func (r *runtime) measureLag(user wire.UserID, submitAt, tq time.Time) {
	cap := 2*r.sc.oracleTe() + 30*time.Second
	var sweep func()
	sweep = func() {
		if cur, ok := r.RevokedAt(user); !ok || !cur.Equal(tq) {
			return // superseded by a re-grant or newer revocation
		}
		confirming := 0
		pending := len(r.W.Hosts)
		decided := func(d core.Decision) {
			if d.Allowed && !d.DefaultAllowed {
				confirming++
			}
			pending--
			if pending > 0 {
				return
			}
			// Sweep complete: converged when no host confirms.
			lag := r.now().Sub(tq)
			r.probeHist.Observe(lag.Seconds())
			if confirming != 0 && lag < cap {
				r.W.Sched.After(lagProbeEvery, sweep)
				return
			}
			// Converged — or never within the cap (the broken scenarios):
			// record the lag so the table shows the pathology, and move on.
			r.res.RevocationLags = append(r.res.RevocationLags, lag)
			r.res.SubmitLags = append(r.res.SubmitLags, r.now().Sub(submitAt))
			r.W.Sched.After(5*time.Second, func() { r.regrant(user) })
		}
		for host := range r.W.Hosts {
			r.Check(host, user, decided)
		}
	}
	sweep()
}

// regrant restores the revoked user's right, retrying while another admin
// op on the user is in flight.
func (r *runtime) regrant(user wire.UserID) {
	if !r.Submit(0, wire.OpAdd, user, nil) {
		r.W.Sched.After(2*time.Second, func() { r.regrant(user) })
	}
}

// gatherOverload sums the overload-protection counters across nodes into
// the result (called once, after the run).
func (r *runtime) gatherOverload() {
	o := &r.res.Overload
	for _, m := range r.W.Managers {
		st := m.Stats()
		o.QueriesShed += st.QueriesShed
		o.TeWidenings += st.TeWidenings
	}
	for _, h := range r.W.Hosts {
		st := h.Stats()
		o.BusyReplies += st.BusyReplies
		o.Backoffs += st.Backoffs
	}
	for i := 0; i < r.sc.Topology.Managers(); i++ {
		if st, ok := r.W.Net.CapacityStats(sim.ManagerID(i)); ok {
			o.CapacityDrops[0] += st.Dropped[0]
			o.CapacityDrops[1] += st.Dropped[1]
		}
	}
}

// gatherAudit folds the run's decision provenance into the result: exact
// per-reason counts from the telemetry counters plus record/drop totals
// from the per-node journals (called once, after the run).
func (r *runtime) gatherAudit(reg *telemetry.Registry) {
	a := &r.res.Audit
	a.Reasons = make(map[string]uint64)
	for reason, n := range core.ReasonCounts(reg) {
		if n > 0 {
			a.Reasons[reason.String()] = n
		}
	}
	for _, rec := range r.W.Journals {
		a.Records += rec.Total()
		a.Dropped += rec.Dropped()
	}
}

// beginFault opens one fault window: it stamps the disruption (voiding any
// armed availability probes) and annotates the net timeline.
func (r *runtime) beginFault(desc string) {
	r.Disrupt()
	r.activeFaults++
	r.W.Net.Annotate(desc)
}

// endFault closes one window; when the network goes quiet (no overlapping
// fault remains), post-heal availability probes are armed.
func (r *runtime) endFault() {
	r.activeFaults--
	if r.activeFaults == 0 {
		r.Healed()
	}
}

// p99 returns the 99th percentile of the samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)*99/100]
}
