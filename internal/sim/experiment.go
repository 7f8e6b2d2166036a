package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"wanac/internal/core"
	"wanac/internal/wire"
)

// This file implements the Monte Carlo experiments behind the paper's
// evaluation (§4.1). Unlike the closed-form formulas in internal/quorum,
// these estimates drive the real protocol code: each trial builds a small
// world, samples the link-inaccessibility pattern (each host-manager or
// manager-manager pair independently inaccessible with probability Pi), and
// runs an actual access check or revocation dissemination through the
// simulator. Agreement between the estimates and the formulas validates
// both the implementation and the analysis.

// TrialParams parameterizes one experiment cell.
type TrialParams struct {
	// M is the number of managers, C the check quorum.
	M, C int
	// Pi is the per-pair site inaccessibility probability.
	Pi float64
	// Trials is the number of Monte Carlo trials.
	Trials int
	// Seed makes the estimate reproducible. Each trial derives its own RNG
	// from (Seed, trial index), so the estimate does not depend on how
	// trials are scheduled across workers.
	Seed int64
	// Workers is the worker-pool size for RunTrials; 0 means GOMAXPROCS.
	// Any value yields bit-identical estimates — 1 is the serial baseline
	// the benchmarks compare against.
	Workers int
}

const (
	trialQueryTimeout = 200 * time.Millisecond
	trialTe           = time.Minute
	trialDeadline     = time.Hour
)

// trialConfig builds the world template for one trial.
func trialConfig(p TrialParams, hosts int) Config {
	return Config{
		Managers: p.M,
		Hosts:    hosts,
		Policy: core.Policy{
			CheckQuorum:  p.C,
			Te:           trialTe,
			QueryTimeout: trialQueryTimeout,
			// Two rounds: the first queries a window of C managers, the
			// second widens to all M, matching the analytic model's "at
			// least C of M accessible" with a static partition pattern.
			MaxAttempts: 2,
		},
		Te:               trialTe,
		Users:            []wire.UserID{"u"},
		MaxUpdateRetries: 1, // the partition pattern is static per trial
		UpdateRetry:      trialQueryTimeout,
		NoTrace:          true, // trials inspect decisions, not traces
	}
}

// TrialFunc runs one Monte Carlo trial against a world in its post-Build
// (or post-ResetTrial) state, drawing ALL of the trial's randomness from
// rng. It reports whether the trial counts as a success.
type TrialFunc func(w *World, rng *rand.Rand) (bool, error)

// trialSeed derives the RNG seed for one trial from the experiment seed
// with a splitmix64-style mixer: sequential (seed, trial) pairs scatter
// across the 64-bit space, so per-trial streams are independent of each
// other and of how trials are assigned to workers.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(trial)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunTrials is the deterministic parallel experiment engine: it shards
// p.Trials independent trials across a pool of p.Workers goroutines
// (GOMAXPROCS when zero), each worker owning one world that it resets
// between trials instead of rebuilding — Build dominates a single trial's
// cost, so reuse is where most of the speedup over the old
// build-per-trial loop comes from, on top of the parallelism.
//
// Trial t draws its randomness from a dedicated RNG seeded by
// trialSeed(p.Seed, t), making each trial's outcome a pure function of
// (p, fn, t): the merged estimate is bit-identical for any worker count,
// so parallel runs are directly comparable with serial ones and with each
// other. Per-worker shard counts are pooled with Proportion.Merge,
// which recomputes the Wilson interval from the combined counts.
func RunTrials(p TrialParams, hosts int, fn TrialFunc) (Proportion, error) {
	if err := validateTrial(p); err != nil {
		return Proportion{}, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.Trials {
		workers = p.Trials
	}
	shards := make([]Proportion, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w, err := Build(trialConfig(p, hosts))
			if err != nil {
				errs[k] = err
				return
			}
			rng := rand.New(rand.NewSource(1))
			successes, trials := 0, 0
			for t := k; t < p.Trials; t += workers {
				if trials > 0 {
					w.ResetTrial()
				}
				rng.Seed(trialSeed(p.Seed, t))
				ok, err := fn(w, rng)
				if err != nil {
					errs[k] = err
					return
				}
				trials++
				if ok {
					successes++
				}
			}
			shards[k] = NewProportion(successes, trials)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Proportion{}, err
		}
	}
	agg := shards[0]
	for _, s := range shards[1:] {
		agg = agg.Merge(s)
	}
	return agg, nil
}

// Proportion is an estimated probability with its sampling uncertainty.
type Proportion struct {
	Successes int
	Trials    int
	// P is the point estimate Successes/Trials.
	P float64
	// Lo and Hi bound the 95% Wilson score interval.
	Lo, Hi float64
}

// NewProportion estimates a probability from Bernoulli trials with a 95%
// Wilson score interval (better behaved than the normal approximation when
// p is near 0 or 1, which is exactly where PA and PS live).
func NewProportion(successes, trials int) Proportion {
	if trials <= 0 {
		return Proportion{}
	}
	p := float64(successes) / float64(trials)
	const z = 1.959964 // 97.5th percentile of the standard normal
	n := float64(trials)
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	lo, hi := center-half, center+half
	// Clamp to [0,1] and guard the floating-point edge at p∈{0,1} where the
	// rounded bound can land on the wrong side of the point estimate.
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if lo > p {
		lo = p
	}
	if hi < p {
		hi = p
	}
	return Proportion{Successes: successes, Trials: trials, P: p, Lo: lo, Hi: hi}
}

// Merge pools this estimate with another over a disjoint set of trials,
// recomputing the point estimate and Wilson interval from the combined
// counts (confidence intervals do not add, so the merged interval must be
// derived from the pooled counts, not the shard intervals). RunTrials merges
// per-worker shards with it; merging in any order yields the same result.
func (p Proportion) Merge(q Proportion) Proportion {
	return NewProportion(p.Successes+q.Successes, p.Trials+q.Trials)
}

// Contains reports whether the interval covers v.
func (p Proportion) Contains(v float64) bool { return v >= p.Lo && v <= p.Hi }

// String renders "0.9917 [0.9903, 0.9929]".
func (p Proportion) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", p.P, p.Lo, p.Hi)
}

// EstimatePA estimates the availability PA(C) empirically: the probability
// that a host with a cold cache can assemble a check quorum when each
// host-manager pair is inaccessible with probability Pi.
func EstimatePA(p TrialParams) (Proportion, error) {
	return RunTrials(p, 1, func(w *World, rng *rand.Rand) (bool, error) {
		for m := 0; m < p.M; m++ {
			if rng.Float64() < p.Pi {
				w.Net.SetLink(HostID(0), ManagerID(m), false)
			}
		}
		d, done := w.CheckSync(0, "u", wire.RightUse, trialDeadline)
		return done && d.Allowed && !d.DefaultAllowed, nil
	})
}

// EstimatePS estimates the security PS(C) empirically: the probability that
// a revocation issued at manager 0 assembles its update quorum of M-C+1
// managers when each manager pair involving the origin is inaccessible with
// probability Pi.
func EstimatePS(p TrialParams) (Proportion, error) {
	return RunTrials(p, 0, func(w *World, rng *rand.Rand) (bool, error) {
		for m := 1; m < p.M; m++ {
			if rng.Float64() < p.Pi {
				w.PartitionManagerPair(0, m)
			}
		}
		reply, done := w.Revoke(0, "u", trialDeadline)
		return done && reply.QuorumReached, nil
	})
}

func validateTrial(p TrialParams) error {
	switch {
	case p.M < 1:
		return fmt.Errorf("sim: M=%d", p.M)
	case p.C < 1 || p.C > p.M:
		return fmt.Errorf("sim: C=%d outside [1,%d]", p.C, p.M)
	case p.Pi < 0 || p.Pi > 1:
		return fmt.Errorf("sim: Pi=%v", p.Pi)
	case p.Trials < 1:
		return fmt.Errorf("sim: Trials=%d", p.Trials)
	}
	return nil
}

// RevocationLatencyParams configures the Figure 3 behavioural experiment:
// how long a revoked user retains access at a host that is partitioned from
// all managers when the revocation is issued.
type RevocationLatencyParams struct {
	Managers int
	C        int
	Te       time.Duration
	// HostClockRate models the host's drift (in [ClockBound, 1]).
	HostClockRate float64
	ClockBound    float64
	// ProbePeriod is how often the experiment re-checks whether the host
	// still grants access (bounds measurement granularity).
	ProbePeriod time.Duration
}

// RevocationLatencyResult reports when access actually stopped relative to
// the revocation's update quorum.
type RevocationLatencyResult struct {
	// Retained is how long after quorum the host kept granting access.
	Retained time.Duration
	// Bound is Te: Retained must never exceed it.
	Bound time.Duration
}

// MeasureRevocationLatency grants, caches, partitions the host, revokes,
// and probes the host's local decision (cache-only: the host cannot reach
// managers) until access stops. The probe uses the host's own cache lookup
// path via a zero-attempt policy check.
func MeasureRevocationLatency(p RevocationLatencyParams) (RevocationLatencyResult, error) {
	if p.ProbePeriod <= 0 {
		p.ProbePeriod = p.Te / 100
	}
	cfg := Config{
		Managers: p.Managers,
		Hosts:    1,
		Policy: core.Policy{
			CheckQuorum:  p.C,
			Te:           p.Te,
			ClockBound:   p.ClockBound,
			QueryTimeout: trialQueryTimeout,
			MaxAttempts:  1,
		},
		Te:               p.Te,
		ClockBound:       p.ClockBound,
		Users:            []wire.UserID{"u"},
		MaxUpdateRetries: 1,
		UpdateRetry:      trialQueryTimeout,
	}
	if p.HostClockRate > 0 {
		cfg.HostClockRates = []float64{p.HostClockRate}
	}
	w, err := Build(cfg)
	if err != nil {
		return RevocationLatencyResult{}, err
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, trialDeadline); !ok || !d.Allowed {
		return RevocationLatencyResult{}, fmt.Errorf("sim: initial grant failed: %+v", d)
	}
	for m := 0; m < p.Managers; m++ {
		w.PartitionHostFromManagers(0, m)
	}
	reply, ok := w.Revoke(0, "u", trialDeadline)
	if !ok || !reply.QuorumReached {
		return RevocationLatencyResult{}, fmt.Errorf("sim: revoke quorum failed: %+v", reply)
	}
	quorumAt := w.Sched.Now()

	// Probe until the cached entry stops granting. Retention is the last
	// instant access was still ALLOWED relative to quorum — the guarantee
	// is "U cannot access the application after t+Te" (§3.2), so the last
	// allowed observation, not the first denied one, is what must stay
	// within the bound.
	retained := time.Duration(0)
	for {
		w.RunFor(p.ProbePeriod)
		probeAt := w.Sched.Now()
		d, ok := w.CheckSync(0, "u", wire.RightUse, trialDeadline)
		if !ok {
			return RevocationLatencyResult{}, fmt.Errorf("sim: probe did not resolve")
		}
		if !d.Allowed {
			break
		}
		retained = probeAt.Sub(quorumAt)
		if retained > 4*p.Te {
			return RevocationLatencyResult{}, fmt.Errorf("sim: access retained past 4*Te")
		}
	}
	return RevocationLatencyResult{Retained: retained, Bound: p.Te}, nil
}

// OverheadPoint is one row of the §4.1 performance analysis: the message
// cost of the protocol as a function of C and Te.
type OverheadPoint struct {
	C  int
	Te time.Duration
	// QueriesPerCheck is the number of query messages per cold check (O(C)
	// in the paper's model, O(M) per round in the multicast realization —
	// the paper's host contacts managers one at a time, ours queries the
	// set; both are Θ(C) responses consumed).
	QueriesPerCheck float64
	// MessagesPerSecond is the steady-state protocol message rate for one
	// host continuously using the application (O(C/Te): each expiry forces
	// a re-check).
	MessagesPerSecond float64
	// CheckLatency is the mean decision latency for a cold check.
	CheckLatency time.Duration
}

// MeasureOverhead runs one host against M managers for the given simulated
// duration with a user invoking continuously every accessEvery, and reports
// message-cost metrics (§4.1: "the performance overhead ... is naturally
// O(C/Te)").
func MeasureOverhead(m, c int, te time.Duration, runFor, accessEvery time.Duration) (OverheadPoint, error) {
	cfg := Config{
		Managers: m,
		Hosts:    1,
		Policy: core.Policy{
			CheckQuorum:  c,
			Te:           te,
			QueryTimeout: trialQueryTimeout,
			MaxAttempts:  3,
		},
		Te:    te,
		Users: []wire.UserID{"u"},
	}
	w, err := Build(cfg)
	if err != nil {
		return OverheadPoint{}, err
	}

	// Cold-check latency and per-check query cost.
	start := w.Sched.Now()
	d, ok := w.CheckSync(0, "u", wire.RightUse, trialDeadline)
	if !ok || !d.Allowed {
		return OverheadPoint{}, fmt.Errorf("sim: cold check failed: %+v", d)
	}
	coldLatency := w.Sched.Now().Sub(start)
	coldQueries := float64(w.Net.Stats().ByKind["query"])

	// Steady state: the user invokes continuously; every te the cache
	// expires and forces a manager round trip.
	w.Net.ResetStats()
	var tick func()
	tick = func() {
		w.Hosts[0].Check(w.Cfg.App, "u", wire.RightUse, func(core.Decision) {})
		w.Sched.After(accessEvery, tick)
	}
	w.Sched.After(accessEvery, tick)
	w.Sched.RunFor(runFor)
	st := w.Net.Stats()
	msgs := float64(st.ByKind["query"] + st.ByKind["response"])
	return OverheadPoint{
		C:                 c,
		Te:                te,
		QueriesPerCheck:   coldQueries,
		MessagesPerSecond: msgs / runFor.Seconds(),
		CheckLatency:      coldLatency,
	}, nil
}
