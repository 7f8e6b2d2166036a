// Package stats provides the binomial-proportion confidence intervals of
// the Monte Carlo availability/security estimates.
package stats

import (
	"fmt"
	"math"
)

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
// derived from the pooled counts, not the shard intervals). The parallel
// experiment engine merges per-worker shards with it; merging in any order
// yields the same result.
func (p Proportion) Merge(q Proportion) Proportion {
	return NewProportion(p.Successes+q.Successes, p.Trials+q.Trials)
}

// Contains reports whether the interval covers v.
func (p Proportion) Contains(v float64) bool { return v >= p.Lo && v <= p.Hi }

// String renders "0.9917 [0.9903, 0.9929]".
func (p Proportion) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", p.P, p.Lo, p.Hi)
}
