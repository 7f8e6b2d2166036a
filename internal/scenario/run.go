package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"wanac/internal/audit"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/harness"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

const (
	// flightRing sizes each node's flight recorder for scenario runs.
	flightRing = 4096
	// auditRing sizes each node's audit recorder; dimensioned like the
	// flight ring so the audit-completeness oracle rarely sees drops.
	auditRing = 8192
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
	// Checks counts issued probes, Decisions those that resolved; the
	// Allowed/Denied/DefaultAllowed split is over decisions.
	Checks         int
	Decisions      int
	Allowed        int
	Denied         int
	DefaultAllowed int
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
	// so immune to ring drops) plus the audit rings' record/drop totals.
	Audit AuditTotals
	// Oracles and Violations are the five harness oracles' verdicts.
	Oracles    []harness.OracleReport
	Violations []harness.Violation
	// Flight is the merged flight dump with violation marks (nil on clean
	// runs); FlightPath is set by WriteFlightArtifact.
	Flight     *flight.Dump
	FlightPath string
	// Net are the simulated network's delivery counters.
	Net simnet.Counters
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// AuditTotals aggregates the audit subsystem's view of one run.
type AuditTotals struct {
	// Reasons counts completed decisions by audit reason (keyed by the
	// reason's stable name, e.g. "cache_hit"), summed across hosts.
	Reasons map[string]uint64
	// Records counts audit records accepted across every node ring
	// (decisions and manager responses); Dropped counts those the bounded
	// rings overwrote before the end-of-run dump.
	Records uint64
	Dropped uint64
}

// Summary renders the totals as the transcript's one-line `audit:` field:
// nonzero decision reasons in canonical order, then ring accounting.
func (a AuditTotals) Summary() string {
	var parts []string
	for _, reason := range audit.DecisionReasons {
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
	// EffectiveTePeak is the widest effective Te observed on any manager
	// during the run (sampled at the cache-sweep cadence; equals the base
	// Te when the controller never widened).
	EffectiveTePeak time.Duration
	// TeMaxedAt is the run offset of the first cache sweep that observed
	// a manager's effective Te at the AdaptiveTe.Max cap — the moment the
	// controller ran out of widening headroom (0 when it never did). The
	// SLO regression test holds burn-rate alerts to firing before this.
	TeMaxedAt time.Duration
	// CapacityDrops counts inbound messages dropped at the managers'
	// finite-capacity queues, by wire.Lane (bulk, high).
	CapacityDrops [2]uint64
}

// runtime drives one scenario against a sim.World, mirroring the harness
// runner's bookkeeping (latest admin state per user, judged checks,
// post-quiet availability probes) while adding load curves, Zipf traffic,
// fault windows, and revocation-lag measurement.
type runtime struct {
	sc     *Scenario
	w      *sim.World
	matrix *simnet.Matrix
	rng    *rand.Rand
	smp    *sampler

	oracles *harness.OracleSet
	users   []wire.UserID // authorized (seeded) users

	// probeHist is the black-box revocation prober: one observation per
	// measureLag sweep, so the SLO engine sees lag as an event stream.
	probeHist *telemetry.Histogram

	revokedAt map[wire.UserID]time.Time
	grantedAt map[wire.UserID]time.Time
	inflight  map[wire.UserID]bool

	lastDisrupt  time.Time
	activeFaults int

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
	pop := sc.Population.withDefaults()
	mgrTe := sc.te()
	if sc.Break.InflateTe {
		mgrTe = 10 * sc.te()
	}
	matrix := sc.Topology.Matrix()
	// Every run is instrumented: against the caller's registry when set
	// (the overload experiments assert exact counters), else a private
	// one. The SLO engine and the prober histogram read the same families
	// the nodes write.
	reg := sc.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	w, err := sim.Build(sim.Config{
		App:      "app",
		Managers: sc.Topology.Managers(),
		Hosts:    sc.Topology.Hosts(),
		Policy:   sc.policy(),
		Te:       mgrTe,
		Users:    pop.AuthorizedUsers(),
		Net: simnet.Config{
			LinkLatency: matrix,
			Loss:        sc.Loss,
			Seed:        seed,
		},
		Overload:        sc.Overload,
		ManagerCapacity: sc.Capacity,
		Telemetry:       reg,
		FlightRing:      flightRing,
		AuditRing:       auditRing,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: build world: %w", sc.Name, err)
	}
	if sc.Break.DropRevokeNotices {
		w.Net.Filter = func(_, _ wire.NodeID, msg wire.Message) bool {
			_, isNotice := msg.(wire.RevokeNotice)
			return !isNotice
		}
	}
	if sc.CacheLimit > 0 {
		for _, h := range w.Hosts {
			h.SetCacheLimit(sc.CacheLimit)
		}
	}

	p := sc.policy()
	r := &runtime{
		sc:     sc,
		w:      w,
		matrix: matrix,
		// The load/population stream draws from its own rng so the network's
		// loss/latency draws don't shift which user a check targets.
		rng:       rand.New(rand.NewSource(seed + 1)),
		oracles:   harness.NewOracleSet(sc.oracleTe(), p.QueryTimeout, sc.CacheLimit, p.CheckQuorum, p.MaxAttempts),
		users:     pop.AuthorizedUsers(),
		revokedAt: make(map[wire.UserID]time.Time),
		grantedAt: make(map[wire.UserID]time.Time),
		inflight:  make(map[wire.UserID]bool),
		start:     w.Sched.Now(),
		res:       &Result{Name: sc.Name, Seed: seed},
	}
	r.smp = pop.sampler(r.rng)
	for _, u := range r.users {
		r.grantedAt[u] = r.start
	}
	r.probeHist = reg.Histogram("wanac_probe_revocation_lag_seconds",
		"Black-box prober: revocation lag observed at each probe sweep (right-censored while hosts still confirm).",
		telemetry.DefBuckets)
	engine := r.setupSLO(reg)

	for _, f := range sc.Faults {
		f.schedule(r)
	}
	if sc.AdminEvery > 0 {
		for at := sc.AdminEvery; at < sc.Duration; at += sc.AdminEvery {
			w.Sched.After(at, func() { r.churnOnce() })
		}
	}
	for at := 15 * time.Second; at <= sc.Duration+harness.Settle; at += 15 * time.Second {
		t := at
		w.Sched.After(t, func() { r.sweepCaches() })
	}
	r.nextArrival()

	w.RunFor(sc.Duration + harness.Settle)

	audits := w.AuditRings()
	r.oracles.AnalyzeTrace(w.Tracer.All(), w.UpdateQuorumTimes())
	r.oracles.AnalyzeAudit(w.Tracer.All(), audits)
	res := r.res
	res.Oracles = r.oracles.Reports()
	res.Violations = r.oracles.Violations()
	res.RevocationLagP99 = p99(res.RevocationLags)
	res.SubmitLagP99 = p99(res.SubmitLags)
	r.gatherOverload()
	r.gatherAudit(reg, audits)
	r.gatherSLO(engine)
	res.Net = w.Net.Stats()
	if res.Failed() {
		res.Flight = harness.MarkedFlightDump(w, res.Violations)
	}
	return res, nil
}

// WriteFlightArtifact persists a failed run's flight dump under the CI
// artifact directory ($WANAC_ARTIFACTS, else the system temp directory),
// named by scenario so reruns overwrite. Clean runs are a no-op.
func WriteFlightArtifact(res *Result) (string, error) {
	if res == nil || res.Flight == nil {
		return "", nil
	}
	path, err := harness.WriteDumpArtifact("wanac-flight-scenario-"+res.Name+".jsonl", res.Flight)
	if err != nil {
		return "", err
	}
	res.FlightPath = path
	return path, nil
}

func (r *runtime) now() time.Time { return r.w.Sched.Now() }

// nextArrival schedules the next load arrival at the curve's instantaneous
// rate. Gaps longer than maxGap are split: wait maxGap, then redraw at the
// then-current rate (exact for exponential gaps, and it tracks ramps).
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
	if gap > maxGap {
		r.w.Sched.After(maxGap, func() { r.nextArrival() })
		return
	}
	r.w.Sched.After(gap, func() {
		if r.now().Sub(r.start) < r.sc.Duration {
			r.check(r.rng.Intn(len(r.w.Hosts)), r.smp.draw())
		}
		r.nextArrival()
	})
}

// check issues one oracle-judged probe (same jurisdiction rules as the
// harness runner).
func (r *runtime) check(host int, user wire.UserID) {
	r.res.Checks++
	startAt := r.now()
	at := r.revokedAt[user] // zero if not revoked
	r.w.Hosts[host].Check(r.w.Cfg.App, user, wire.RightUse, func(d core.Decision) {
		r.res.Decisions++
		switch {
		case d.Allowed && d.DefaultAllowed:
			r.res.DefaultAllowed++
		case d.Allowed:
			r.res.Allowed++
		default:
			r.res.Denied++
		}
		cur, still := r.revokedAt[user]
		r.oracles.JudgeCheck(user, host, startAt, at, still && cur.Equal(at), d.Allowed, d.DefaultAllowed)
	})
}

// churnOnce revokes the next authorized user in rotation, measures how long
// hosts keep confirming them, then re-grants.
func (r *runtime) churnOnce() {
	user := r.users[r.churn%len(r.users)]
	r.churn++
	if r.inflight[user] {
		return
	}
	r.inflight[user] = true
	submitAt := r.now()
	// Submit to manager 0; the catalog keeps manager 0 outside partitioned
	// regions so churn reaches quorum even mid-fault.
	r.w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: r.w.Cfg.App, User: user, Right: wire.RightUse,
		Issuer: r.w.Cfg.Admin,
	}, func(reply wire.AdminReply) {
		r.inflight[user] = false
		if !reply.QuorumReached {
			return
		}
		tq := r.now()
		r.revokedAt[user] = tq
		delete(r.grantedAt, user)
		r.res.Revocations++
		r.measureLag(user, submitAt, tq)
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
		if cur, ok := r.revokedAt[user]; !ok || !cur.Equal(tq) {
			return // superseded by a re-grant or newer revocation
		}
		confirming := 0
		pending := len(r.w.Hosts)
		for hi := range r.w.Hosts {
			host := hi
			startAt := r.now()
			r.w.Hosts[host].Check(r.w.Cfg.App, user, wire.RightUse, func(d core.Decision) {
				r.res.Decisions++
				switch {
				case d.Allowed && d.DefaultAllowed:
					r.res.DefaultAllowed++
				case d.Allowed:
					r.res.Allowed++
				default:
					r.res.Denied++
				}
				cur, still := r.revokedAt[user]
				r.oracles.JudgeCheck(user, host, startAt, tq, still && cur.Equal(tq), d.Allowed, d.DefaultAllowed)
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
				if confirming == 0 {
					r.res.RevocationLags = append(r.res.RevocationLags, lag)
					r.res.SubmitLags = append(r.res.SubmitLags, r.now().Sub(submitAt))
					r.w.Sched.After(5*time.Second, func() { r.regrant(user) })
					return
				}
				if lag < cap {
					r.w.Sched.After(lagProbeEvery, sweep)
					return
				}
				// Never converged within the cap (the broken scenarios):
				// record the cap so the table shows the pathology, and move on.
				r.res.RevocationLags = append(r.res.RevocationLags, lag)
				r.res.SubmitLags = append(r.res.SubmitLags, r.now().Sub(submitAt))
				r.w.Sched.After(5*time.Second, func() { r.regrant(user) })
			})
		}
		r.res.Checks += len(r.w.Hosts)
	}
	sweep()
}

// regrant restores the revoked user's right, keeping the model in sync.
func (r *runtime) regrant(user wire.UserID) {
	if r.inflight[user] {
		r.w.Sched.After(2*time.Second, func() { r.regrant(user) })
		return
	}
	r.inflight[user] = true
	// Clear optimistically at submission, mirroring the harness: once the
	// re-grant is in the system an allow can't be blamed on the revocation.
	delete(r.revokedAt, user)
	r.w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpAdd, App: r.w.Cfg.App, User: user, Right: wire.RightUse,
		Issuer: r.w.Cfg.Admin,
	}, func(reply wire.AdminReply) {
		r.inflight[user] = false
		if reply.QuorumReached {
			r.grantedAt[user] = r.now()
		}
	})
}

// sweepCaches feeds one observation per host to the cache-hygiene oracle
// and samples the managers' effective Te (the adaptive controller decays
// when load subsides, so the peak must be observed mid-run).
func (r *runtime) sweepCaches() {
	for i := range r.w.Hosts {
		_, retained, expired := r.w.CacheObservation(i)
		r.oracles.SweepCache(r.now(), i, len(retained), len(expired))
	}
	for _, m := range r.w.Managers {
		te := m.Stats().EffectiveTe
		if te > r.res.Overload.EffectiveTePeak {
			r.res.Overload.EffectiveTePeak = te
		}
		if max := r.sc.Overload.AdaptiveTe.Max; max > 0 && te >= max && r.res.Overload.TeMaxedAt == 0 {
			r.res.Overload.TeMaxedAt = r.now().Sub(r.start)
		}
	}
}

// gatherOverload sums the overload-protection counters across nodes into
// the result (called once, after the run).
func (r *runtime) gatherOverload() {
	o := &r.res.Overload
	for _, m := range r.w.Managers {
		st := m.Stats()
		o.QueriesShed += st.QueriesShed
		o.TeWidenings += st.TeWidenings
		if st.EffectiveTe > o.EffectiveTePeak {
			o.EffectiveTePeak = st.EffectiveTe
		}
	}
	for _, h := range r.w.Hosts {
		st := h.Stats()
		o.BusyReplies += st.BusyReplies
		o.Backoffs += st.Backoffs
	}
	for i := 0; i < r.sc.Topology.Managers(); i++ {
		if st, ok := r.w.Net.CapacityStats(sim.ManagerID(i)); ok {
			o.CapacityDrops[0] += st.Dropped[0]
			o.CapacityDrops[1] += st.Dropped[1]
		}
	}
}

// gatherAudit folds the run's decision provenance into the result: exact
// per-reason counts from the telemetry counters plus record/drop totals
// from the per-node audit rings (called once, after the run).
func (r *runtime) gatherAudit(reg *telemetry.Registry, audits []*audit.Recorder) {
	a := &r.res.Audit
	a.Reasons = make(map[string]uint64)
	for reason, n := range core.ReasonCounts(reg) {
		if n > 0 {
			a.Reasons[reason.String()] = n
		}
	}
	for _, rec := range audits {
		a.Records += rec.Total()
		a.Dropped += rec.Dropped()
	}
}

// beginFault opens one fault window: it stamps the disruption (voiding any
// armed availability probes) and annotates the net timeline.
func (r *runtime) beginFault(desc string) {
	r.lastDisrupt = r.now()
	r.activeFaults++
	r.w.Net.Annotate(desc)
}

// endFault closes one window; when the network goes quiet (no overlapping
// fault remains), post-heal availability probes are armed.
func (r *runtime) endFault() {
	r.activeFaults--
	if r.activeFaults == 0 {
		r.armAvailability(r.now())
	}
}

// armAvailability creates one post-quiet liveness probe per host, targeting
// a user whose grant has been stable since before the disruption ended.
func (r *runtime) armAvailability(healAt time.Time) {
	for hi := range r.w.Hosts {
		user, ok := r.stableUser(healAt)
		if !ok {
			continue
		}
		pr := r.oracles.ArmProbe(hi, user, healAt)
		r.w.Sched.After(3*core.DefaultUpdateRetry, func() { r.probeOnce(pr) })
		r.w.Sched.After(harness.AvailabilityWindow, func() {
			if !r.interferes(pr) {
				r.oracles.JudgeProbe(pr, r.now(), harness.AvailabilityWindow)
			}
		})
	}
}

// stableUser picks the first user granted at least 10s before the heal and
// not currently revoked or mid-churn.
func (r *runtime) stableUser(healAt time.Time) (wire.UserID, bool) {
	for _, u := range r.users {
		g, ok := r.grantedAt[u]
		if !ok || healAt.Sub(g) < 10*time.Second {
			continue
		}
		if _, revoked := r.revokedAt[u]; revoked {
			continue
		}
		if r.inflight[u] {
			continue
		}
		return u, true
	}
	return "", false
}

// interferes reports whether events since the heal invalidated the probe.
func (r *runtime) interferes(pr *harness.Probe) bool {
	if r.lastDisrupt.After(pr.HealAt) {
		return true
	}
	if _, revoked := r.revokedAt[pr.User]; revoked {
		return true
	}
	return r.inflight[pr.User]
}

// probeOnce runs one availability probe round and reschedules until the
// window closes.
func (r *runtime) probeOnce(pr *harness.Probe) {
	if pr.Done || pr.Aborted {
		return
	}
	if r.interferes(pr) {
		pr.Aborted = true
		return
	}
	if r.now().Sub(pr.HealAt) > harness.AvailabilityWindow {
		return
	}
	r.w.Hosts[pr.Host].Check(r.w.Cfg.App, pr.User, wire.RightUse, func(d core.Decision) {
		if d.Allowed {
			pr.Done = true
		}
	})
	r.w.Sched.After(2*time.Second, func() { r.probeOnce(pr) })
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
