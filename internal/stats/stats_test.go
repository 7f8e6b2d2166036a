package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

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
