package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wanac/internal/quorum"
)

// TestEstimatePAMatchesAnalytic cross-validates the Monte Carlo estimator
// (real protocol) against the paper's closed form. The tolerance combines
// the Wilson interval with a small slack.
func TestEstimatePAMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-validation")
	}
	cases := []TrialParams{
		{M: 10, C: 5, Pi: 0.1, Trials: 3000, Seed: 1},
		{M: 10, C: 8, Pi: 0.2, Trials: 3000, Seed: 2},
		{M: 4, C: 2, Pi: 0.2, Trials: 3000, Seed: 3},
		{M: 1, C: 1, Pi: 0.3, Trials: 3000, Seed: 4},
	}
	for _, p := range cases {
		est, err := EstimatePA(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := quorum.PA(p.M, p.C, p.Pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.P-want) > 0.03 {
			t.Errorf("M=%d C=%d Pi=%v: empirical PA %s vs analytic %.4f", p.M, p.C, p.Pi, est, want)
		}
	}
}

func TestEstimatePSMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-validation")
	}
	cases := []TrialParams{
		{M: 10, C: 5, Pi: 0.1, Trials: 3000, Seed: 5},
		{M: 10, C: 2, Pi: 0.2, Trials: 3000, Seed: 6},
		{M: 4, C: 2, Pi: 0.2, Trials: 3000, Seed: 7},
	}
	for _, p := range cases {
		est, err := EstimatePS(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := quorum.PS(p.M, p.C, p.Pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.P-want) > 0.03 {
			t.Errorf("M=%d C=%d Pi=%v: empirical PS %s vs analytic %.4f", p.M, p.C, p.Pi, est, want)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	bad := []TrialParams{
		{M: 0, C: 1, Pi: 0.1, Trials: 1},
		{M: 3, C: 0, Pi: 0.1, Trials: 1},
		{M: 3, C: 4, Pi: 0.1, Trials: 1},
		{M: 3, C: 2, Pi: -0.1, Trials: 1},
		{M: 3, C: 2, Pi: 0.1, Trials: 0},
	}
	for _, p := range bad {
		if _, err := EstimatePA(p); err == nil {
			t.Errorf("EstimatePA accepted %+v", p)
		}
		if _, err := EstimatePS(p); err == nil {
			t.Errorf("EstimatePS accepted %+v", p)
		}
	}
}

// TestRevocationLatencyWithinBound sweeps host clock rates across the legal
// range and checks the retained-access time never exceeds Te (Figure 3's
// guarantee), while perfect-clock hosts retain close to te.
func TestRevocationLatencyWithinBound(t *testing.T) {
	const te = 60 * time.Second
	for _, rate := range []float64{1.0, 0.9, 0.8} {
		res, err := MeasureRevocationLatency(RevocationLatencyParams{
			Managers:      3,
			C:             2,
			Te:            te,
			ClockBound:    0.8,
			HostClockRate: rate,
			ProbePeriod:   100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if res.Retained > res.Bound {
			t.Errorf("rate %v: retained %v exceeds Te %v", rate, res.Retained, res.Bound)
		}
		if res.Retained <= 0 {
			t.Errorf("rate %v: retained %v, expected positive", rate, res.Retained)
		}
	}
}

// TestRevocationLatencyScalesWithTe: halving Te halves the worst-case
// retention (the §4.1 tradeoff between overhead and revocation delay).
func TestRevocationLatencyScalesWithTe(t *testing.T) {
	measure := func(te time.Duration) time.Duration {
		res, err := MeasureRevocationLatency(RevocationLatencyParams{
			Managers: 2, C: 1, Te: te, ClockBound: 1, HostClockRate: 1,
			ProbePeriod: te / 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Retained
	}
	long := measure(80 * time.Second)
	short := measure(40 * time.Second)
	if short >= long {
		t.Errorf("retention did not shrink with Te: Te=40s -> %v, Te=80s -> %v", short, long)
	}
}

func TestMeasureOverheadScaling(t *testing.T) {
	const m = 6
	// Message rate scales with 1/Te (§4.1: overhead is O(C/Te)).
	fast, err := MeasureOverhead(m, 3, 10*time.Second, 10*time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MeasureOverhead(m, 3, 40*time.Second, 10*time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MessagesPerSecond <= slow.MessagesPerSecond {
		t.Errorf("overhead did not grow with shorter Te: te=10s %.3f msg/s, te=40s %.3f msg/s",
			fast.MessagesPerSecond, slow.MessagesPerSecond)
	}
	ratio := fast.MessagesPerSecond / slow.MessagesPerSecond
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("rate ratio %.2f, expected ~4 (Te ratio)", ratio)
	}
	if fast.QueriesPerCheck != 3 {
		t.Errorf("queries per cold check = %v, want C=3 (staged first round)", fast.QueriesPerCheck)
	}
	if fast.CheckLatency <= 0 {
		t.Error("zero cold-check latency")
	}
}

func TestProportion(t *testing.T) {
	p := NewProportion(90, 100)
	if p.P != 0.9 {
		t.Errorf("P = %v", p.P)
	}
	if p.Lo >= p.P || p.Hi <= p.P {
		t.Errorf("interval [%v,%v] does not straddle %v", p.Lo, p.Hi, p.P)
	}
	if !p.Contains(0.9) || p.Contains(0.5) {
		t.Error("Contains misbehaves")
	}
	if !strings.Contains(p.String(), "0.9000") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestProportionEdges(t *testing.T) {
	if p := NewProportion(0, 0); p.Trials != 0 || p.P != 0 {
		t.Errorf("zero-trials proportion = %+v", p)
	}
	p := NewProportion(0, 50)
	if p.Lo != 0 || p.P != 0 {
		t.Errorf("all-failures proportion = %+v", p)
	}
	if p.Hi <= 0 {
		t.Error("Wilson upper bound should exceed 0 for 0/50")
	}
	p = NewProportion(50, 50)
	if p.Hi != 1 || p.P != 1 {
		t.Errorf("all-successes proportion = %+v", p)
	}
	if p.Lo >= 1 {
		t.Error("Wilson lower bound should be below 1 for 50/50")
	}
}

// TestProportionCoverageQuick: the interval always contains the point
// estimate and stays within [0,1].
func TestProportionCoverageQuick(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		successes := int(s) % (trials + 1)
		p := NewProportion(successes, trials)
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.P && p.P <= p.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestProportionShrinksWithN: more trials narrow the interval.
func TestProportionShrinksWithN(t *testing.T) {
	small := NewProportion(50, 100)
	large := NewProportion(5000, 10000)
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Errorf("interval did not shrink: n=100 width %v, n=10000 width %v",
			small.Hi-small.Lo, large.Hi-large.Lo)
	}
}

func TestProportionMerge(t *testing.T) {
	direct := NewProportion(37, 100)
	a, b, c := NewProportion(20, 60), NewProportion(10, 25), NewProportion(7, 15)
	if got := a.Merge(b).Merge(c); got != direct {
		t.Errorf("merged = %+v, direct = %+v", got, direct)
	}
	if got := c.Merge(a.Merge(b)); got != direct {
		t.Errorf("merge order changed result: %+v vs %+v", got, direct)
	}
	if got := NewProportion(3, 10).Merge(Proportion{}); got != NewProportion(3, 10) {
		t.Errorf("zero shard is not the identity: %+v", got)
	}
}
