package quorum

import (
	"math"
	"testing"
)

// TestUpdateQuorumEdges pins the quorum arithmetic at the lattice corners
// and beyond the exhaustive search's M <= 8: C=1 (availability-first) needs a
// full-set update quorum, C=M (security-first) lets a manager revoke alone,
// and the degenerate M=1 deployment has both quorums equal to the single
// manager. At every row the smallest check quorum and the smallest update
// quorum sum past M, so by pigeonhole any two meet (§3.3): the shared
// manager has applied the revocation and refuses to vouch.
func TestUpdateQuorumEdges(t *testing.T) {
	cases := []struct {
		name string
		m, c int
		want int
	}{
		{"M=1 C=1 single manager", 1, 1, 1},
		{"C=1 needs every manager", 5, 1, 5},
		{"C=M revokes alone", 5, 5, 1},
		{"C=M at M=2", 2, 2, 1},
		{"C=1 at M=2", 2, 1, 2},
		{"balanced M=5 C=3", 5, 3, 3},
		{"boundary M=4 C=2", 4, 2, 3},
		{"large M=20 C=7", 20, 7, 14},
		{"large M=25 C=1", 25, 1, 25},
		{"large M=25 C=13", 25, 13, 13},
		{"large M=25 C=25", 25, 25, 1},
		{"widest M=64 C=33", MaxManagers, 33, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := UpdateQuorum(tc.m, tc.c); got != tc.want {
				t.Errorf("UpdateQuorum(%d,%d)=%d, want %d", tc.m, tc.c, got, tc.want)
			}
			sys, err := New(tc.m, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.IsUpdateQuorum(First(tc.want)) || sys.IsUpdateQuorum(First(tc.want-1)) {
				t.Errorf("IsUpdateQuorum does not start at %d acks", tc.want)
			}
			if !sys.Allows(First(tc.c)) || sys.Allows(First(tc.c-1)) {
				t.Errorf("Allows does not start at %d grants", tc.c)
			}
			if tc.c+tc.want != tc.m+1 {
				t.Errorf("C + update quorum = %d, want M+1=%d (quorums could miss each other)", tc.c+tc.want, tc.m+1)
			}
		})
	}
}

// TestQuorumsAlwaysIntersect verifies the protocol's safety foundation for
// every (M, C) in range: any check quorum of size C and any update quorum of
// size M-C+1 drawn from M managers must share a member — which holds exactly
// when the sizes sum past M (pigeonhole, §3.3). Revocation safety rests on
// this: the shared manager has applied the revocation and refuses to vouch.
func TestQuorumsAlwaysIntersect(t *testing.T) {
	for m := 1; m <= 25; m++ {
		for c := 1; c <= m; c++ {
			uq := UpdateQuorum(m, c)
			if uq < 1 || uq > m {
				t.Fatalf("M=%d C=%d: update quorum %d outside [1,%d]", m, c, uq, m)
			}
			if c+uq != m+1 {
				t.Errorf("M=%d C=%d: C + updateQuorum = %d, want M+1=%d (quorums could miss each other)",
					m, c, c+uq, m+1)
			}
		}
	}
}

// TestProbabilityEdges pins PA/PS at the corners where they collapse to
// closed forms: PS(C=M)=1 (the issuer alone is an update quorum),
// PA(M=1,C=1)=1-pi, PA at pi=0 is 1, PA at pi=1 is 0, and PS(C=1) requires
// reaching every other manager.
func TestProbabilityEdges(t *testing.T) {
	const pi = 0.2
	cases := []struct {
		name    string
		got     func() (float64, error)
		want    float64
		withinE float64
	}{
		{"PS at C=M is certain", func() (float64, error) { return PS(5, 5, pi) }, 1, 0},
		{"PS at M=1 is certain", func() (float64, error) { return PS(1, 1, pi) }, 1, 0},
		{"PA at M=1 is single-link", func() (float64, error) { return PA(1, 1, pi) }, 1 - pi, 1e-12},
		{"PA perfect network", func() (float64, error) { return PA(7, 7, 0) }, 1, 0},
		{"PA dead network", func() (float64, error) { return PA(7, 1, 1) }, 0, 0},
		{"PS dead network C<M", func() (float64, error) { return PS(3, 2, 1) }, 0, 0},
		{"PS C=1 reaches all peers", func() (float64, error) { return PS(3, 1, pi) }, (1 - pi) * (1 - pi), 1e-12},
		{"PA C=1 any of M", func() (float64, error) { return PA(2, 1, pi) }, 1 - pi*pi, 1e-12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.got()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > tc.withinE {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPlanParamsEdgeTargets drives the planner into the corners and asserts
// every plan it emits keeps the quorum-intersection invariant and respects
// the C bounds.
func TestPlanParamsEdgeTargets(t *testing.T) {
	cases := []struct {
		name    string
		targets Targets
	}{
		{"availability only", Targets{Availability: 0.999, Security: 0, Pi: 0.2}},
		{"security only", Targets{Availability: 0, Security: 0.999, Pi: 0.2}},
		{"both tight", Targets{Availability: 0.995, Security: 0.995, Pi: 0.15}},
		{"trivial targets", Targets{Availability: 0, Security: 0, Pi: 0.5}},
		{"perfect network", Targets{Availability: 1, Security: 1, Pi: 0}},
		{"near-dead network loose", Targets{Availability: 0.05, Security: 0.05, Pi: 0.95}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := PlanParams(tc.targets)
			if err != nil {
				t.Fatalf("planner refused feasible targets: %v", err)
			}
			if p.C < 1 || p.C > p.M {
				t.Fatalf("plan C=%d outside [1,M=%d]", p.C, p.M)
			}
			if p.C+UpdateQuorum(p.M, p.C) != p.M+1 {
				t.Errorf("planned quorums do not intersect: M=%d C=%d", p.M, p.C)
			}
			if p.PA < tc.targets.Availability || p.PS < tc.targets.Security {
				t.Errorf("plan misses its own targets: %+v vs %+v", p, tc.targets)
			}
		})
	}
}

// TestFeasibleRegionEdges checks the region report at M=1 and at window
// corners: every reported feasible window satisfies the intersection
// invariant at both endpoints, and an empty window is reported as
// CLow > CHigh rather than fabricated bounds.
func TestFeasibleRegionEdges(t *testing.T) {
	region, err := FeasibleRegion(Targets{Availability: 0.9, Security: 0.9, Pi: 0.1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range region {
		if fr.CLow <= fr.CHigh {
			for _, c := range []int{fr.CLow, fr.CHigh} {
				if c < 1 || c > fr.M {
					t.Errorf("M=%d: feasible C=%d outside [1,M]", fr.M, c)
					continue
				}
				if c+UpdateQuorum(fr.M, c) != fr.M+1 {
					t.Errorf("M=%d C=%d: feasible window violates intersection", fr.M, c)
				}
			}
		} else if fr.CHigh != 0 || fr.CLow != fr.M+1 {
			t.Errorf("M=%d: empty window encoded as [%d,%d], want [M+1,0]", fr.M, fr.CLow, fr.CHigh)
		}
	}
	if region[0].M != 1 {
		t.Fatalf("region must start at M=1, got %d", region[0].M)
	}
}
