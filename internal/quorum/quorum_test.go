package quorum

import (
	"math"
	"testing"
	"testing/quick"
)

// Values transcribed from the paper. Rounded to 5 decimals there, so the
// comparison tolerance is just above the rounding error.
const paperTol = 6e-6

// table1 holds Table 1 of the paper: M=10, C=1..10.
var table1 = []struct {
	c                      int
	pa01, ps01, pa02, ps02 float64
}{
	{1, 1.00000, 0.38742, 1.00000, 0.13422},
	{2, 1.00000, 0.77484, 1.00000, 0.43621},
	{3, 1.00000, 0.94703, 0.99992, 0.73820},
	{4, 0.99999, 0.99167, 0.99914, 0.91436},
	{5, 0.99985, 0.99911, 0.99363, 0.98042},
	{6, 0.99837, 0.99994, 0.96721, 0.99693},
	{7, 0.98720, 1.00000, 0.87913, 0.99969},
	{8, 0.92981, 1.00000, 0.67780, 0.99998},
	{9, 0.73610, 1.00000, 0.37581, 1.00000},
	{10, 0.34868, 1.00000, 0.10737, 1.00000},
}

func TestTable1Values(t *testing.T) {
	for _, row := range table1 {
		for _, cfg := range []struct {
			pi     float64
			pa, ps float64
		}{
			{0.1, row.pa01, row.ps01},
			{0.2, row.pa02, row.ps02},
		} {
			pa, err := PA(10, row.c, cfg.pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pa-cfg.pa) > paperTol {
				t.Errorf("PA(10,%d,%.1f) = %.5f, paper says %.5f", row.c, cfg.pi, pa, cfg.pa)
			}
			ps, err := PS(10, row.c, cfg.pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ps-cfg.ps) > paperTol {
				t.Errorf("PS(10,%d,%.1f) = %.5f, paper says %.5f", row.c, cfg.pi, ps, cfg.ps)
			}
		}
	}
}

// table2 holds Table 2 of the paper: varying M with C fixed at 2 (upper
// half) and C scaled with M (lower half).
var table2 = []struct {
	m, c                   int
	pa01, ps01, pa02, ps02 float64
}{
	{4, 2, 0.99630, 0.97200, 0.97280, 0.89600},
	{6, 2, 0.99994, 0.91854, 0.99840, 0.73728},
	{8, 2, 1.00000, 0.85031, 0.99992, 0.57672},
	{10, 2, 1.00000, 0.77484, 1.00000, 0.43621},
	{12, 2, 1.00000, 0.69736, 1.00000, 0.32212},
	{4, 2, 0.99630, 0.97200, 0.97280, 0.89600},
	{6, 3, 0.99873, 0.99144, 0.98304, 0.94208},
	{8, 4, 0.99957, 0.99727, 0.98959, 0.96666},
	{10, 5, 0.99985, 0.99911, 0.99363, 0.98042},
	{12, 6, 0.99995, 0.99970, 0.99610, 0.98835},
}

func TestTable2Values(t *testing.T) {
	for _, row := range table2 {
		for _, cfg := range []struct {
			pi     float64
			pa, ps float64
		}{
			{0.1, row.pa01, row.ps01},
			{0.2, row.pa02, row.ps02},
		} {
			pa, err := PA(row.m, row.c, cfg.pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pa-cfg.pa) > paperTol {
				t.Errorf("PA(%d,%d,%.1f) = %.5f, paper says %.5f", row.m, row.c, cfg.pi, pa, cfg.pa)
			}
			ps, err := PS(row.m, row.c, cfg.pi)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ps-cfg.ps) > paperTol {
				t.Errorf("PS(%d,%d,%.1f) = %.5f, paper says %.5f", row.m, row.c, cfg.pi, ps, cfg.ps)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []struct{ m, c int }{{0, 1}, {5, 0}, {5, 6}, {-1, 1}}
	for _, b := range bad {
		if _, err := PA(b.m, b.c, 0.1); err == nil {
			t.Errorf("PA(%d,%d) accepted", b.m, b.c)
		}
		if _, err := PS(b.m, b.c, 0.1); err == nil {
			t.Errorf("PS(%d,%d) accepted", b.m, b.c)
		}
	}
	for _, pi := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := PA(5, 2, pi); err == nil {
			t.Errorf("PA with pi=%v accepted", pi)
		}
	}
}

func TestExtremes(t *testing.T) {
	// Perfect network: everything is 1.
	pa, _ := PA(10, 10, 0)
	ps, _ := PS(10, 1, 0)
	if pa != 1 || ps != 1 {
		t.Errorf("pi=0: PA=%v PS=%v, want 1,1", pa, ps)
	}
	// Totally partitioned network: checks never succeed; a lone revoker
	// can only assemble a quorum when the update quorum is itself (C=M).
	pa, _ = PA(10, 1, 1)
	if pa != 0 {
		t.Errorf("pi=1: PA=%v, want 0", pa)
	}
	ps, _ = PS(10, 10, 1)
	if ps != 1 {
		t.Errorf("pi=1, C=M: PS=%v, want 1 (update quorum of one)", ps)
	}
	ps, _ = PS(10, 9, 1)
	if ps != 0 {
		t.Errorf("pi=1, C=9: PS=%v, want 0", ps)
	}
	// Single manager: PA(1,1) = 1-pi, PS(1,1) = 1 (no peers to reach).
	pa, _ = PA(1, 1, 0.3)
	if math.Abs(pa-0.7) > 1e-12 {
		t.Errorf("PA(1,1,0.3)=%v", pa)
	}
	ps, _ = PS(1, 1, 0.3)
	if ps != 1 {
		t.Errorf("PS(1,1,0.3)=%v", ps)
	}
}

// TestMonotonicityQuick checks the structural properties visible in
// Figure 5: PA is nonincreasing and PS nondecreasing in C.
func TestMonotonicityQuick(t *testing.T) {
	f := func(mRaw uint8, piRaw uint16) bool {
		m := int(mRaw%20) + 1
		pi := float64(piRaw%1000) / 1000
		curve, err := Curve(m, pi)
		if err != nil || len(curve) != m {
			return false
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].PA > curve[i-1].PA+1e-12 {
				return false
			}
			if curve[i].PS < curve[i-1].PS-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFigure5Shape checks the qualitative claim of Figure 5: around C=M/2
// both PA and PS are close to 1 while the endpoints sacrifice one of them.
func TestFigure5Shape(t *testing.T) {
	curve, err := Curve(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mid := curve[4] // C=5
	if mid.PA < 0.999 || mid.PS < 0.999 {
		t.Errorf("C=M/2 point not near (1,1): %+v", mid)
	}
	if curve[0].PS > 0.5 {
		t.Errorf("PS at C=1 should be low, got %v", curve[0].PS)
	}
	if curve[9].PA > 0.5 {
		t.Errorf("PA at C=M should be low, got %v", curve[9].PA)
	}
}

func TestUpdateQuorum(t *testing.T) {
	cases := []struct{ m, c, want int }{
		{10, 1, 10}, {10, 10, 1}, {10, 5, 6}, {4, 2, 3},
	}
	for _, c := range cases {
		if got := UpdateQuorum(c.m, c.c); got != c.want {
			t.Errorf("UpdateQuorum(%d,%d) = %d, want %d", c.m, c.c, got, c.want)
		}
	}
}

// TestQuorumIntersection verifies the defining property: any check quorum
// and any update quorum intersect (C + (M-C+1) > M).
func TestQuorumIntersection(t *testing.T) {
	for m := 1; m <= 20; m++ {
		for c := 1; c <= m; c++ {
			if c+UpdateQuorum(m, c) <= m {
				t.Errorf("M=%d C=%d: quorums do not intersect", m, c)
			}
		}
	}
}

func TestBestCNearMidpoint(t *testing.T) {
	for _, pi := range []float64{0.05, 0.1, 0.2, 0.3} {
		best, err := BestC(10, pi)
		if err != nil {
			t.Fatal(err)
		}
		if best.C < 4 || best.C > 7 {
			t.Errorf("pi=%v: BestC = %d, expected near M/2", pi, best.C)
		}
		if math.Min(best.PA, best.PS) < 0.5 {
			t.Errorf("pi=%v: best point is poor: %+v", pi, best)
		}
	}
}

func TestPoissonBinomialMatchesBinomial(t *testing.T) {
	for _, n := range []int{1, 3, 7, 12} {
		for _, p := range []float64{0, 0.2, 0.5, 0.9, 1} {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = p
			}
			for k := 0; k <= n+1; k++ {
				got, err := PoissonBinomialTail(probs, k)
				if err != nil {
					t.Fatal(err)
				}
				want := binomTail(n, k, p)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d p=%v k=%d: poisson=%v binom=%v", n, p, k, got, want)
				}
			}
		}
	}
}

func TestPoissonBinomialHetero(t *testing.T) {
	// Two trials: p1=1, p2=0. Exactly one success always.
	got, err := PoissonBinomialTail([]float64{1, 0}, 1)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("tail(1) = %v, %v", got, err)
	}
	got, err = PoissonBinomialTail([]float64{1, 0}, 2)
	if err != nil || got != 0 {
		t.Errorf("tail(2) = %v, %v", got, err)
	}
	if _, err := PoissonBinomialTail([]float64{0.5, 1.5}, 1); err == nil {
		t.Error("invalid probability accepted")
	}
}

func TestHeteroUniformMatchesHomogeneous(t *testing.T) {
	const m, pi = 6, 0.15
	sys := Uniform(4, m, pi)
	for c := 1; c <= m; c++ {
		avail, sec, err := sys.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		pa, _ := PA(m, c, pi)
		ps, _ := PS(m, c, pi)
		if math.Abs(avail-pa) > 1e-12 {
			t.Errorf("C=%d: hetero avail %v != PA %v", c, avail, pa)
		}
		if math.Abs(sec-ps) > 1e-12 {
			t.Errorf("C=%d: hetero sec %v != PS %v", c, sec, ps)
		}
	}
}

// TestHeteroWeighting reproduces the §4.1 observation: a frequently-issuing
// manager that is frequently inaccessible from the others drags system
// security down far more than an equally flaky but quiet manager.
func TestHeteroWeighting(t *testing.T) {
	const m = 4
	sys := Uniform(2, m, 0.05)
	// Manager 0 is nearly cut off from its peers.
	for b := 1; b < m; b++ {
		sys.ManagerAccess[0][b] = 0.2
		sys.ManagerAccess[b][0] = 0.2
	}
	c := 2

	quiet := sys
	quiet.ManagerWeight = []float64{0.01, 0.33, 0.33, 0.33}
	_, secQuiet, err := quiet.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}

	noisy := sys
	noisy.ManagerWeight = []float64{0.97, 0.01, 0.01, 0.01}
	_, secNoisy, err := noisy.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}

	if secNoisy >= secQuiet {
		t.Errorf("noisy flaky manager should hurt security: quiet=%v noisy=%v", secQuiet, secNoisy)
	}
}

func TestHeteroValidation(t *testing.T) {
	sys := HeteroSystem{}
	if _, _, err := sys.Analyze(1); err == nil {
		t.Error("empty system accepted")
	}
	sys = Uniform(2, 3, 0.1)
	if _, _, err := sys.Analyze(0); err == nil {
		t.Error("C=0 accepted")
	}
	if _, _, err := sys.Analyze(4); err == nil {
		t.Error("C>M accepted")
	}
	sys.HostWeight = []float64{1} // wrong length
	if _, _, err := sys.Analyze(1); err == nil {
		t.Error("bad weight length accepted")
	}
	sys = Uniform(2, 3, 0.1)
	sys.HostAccess[1] = []float64{0.5} // ragged row
	if _, _, err := sys.Analyze(1); err == nil {
		t.Error("ragged HostAccess accepted")
	}
	sys = Uniform(2, 3, 0.1)
	sys.HostWeight = []float64{0, 0}
	if _, _, err := sys.Analyze(1); err == nil {
		t.Error("zero weights accepted")
	}
}

// TestPAPSComplementarity checks the structural identity that makes the
// curves in Figure 5 mirror images for pi=0.5: reaching C of M when links
// are coin flips is symmetric with failing to reach them.
func TestPAPSComplementarity(t *testing.T) {
	const m = 9
	for c := 1; c <= m; c++ {
		pa, _ := PA(m, c, 0.5)
		paMirror, _ := PA(m, m-c+1, 0.5)
		// At p=0.5 the binomial is symmetric, so P[X>=C] + P[X>=M-C+1]
		// = P[X>=C] + P[X<=C-1] = 1 exactly.
		if math.Abs(pa+paMirror-1) > 1e-12 {
			t.Errorf("C=%d: PA(C)+PA(M-C+1) = %v, want 1", c, pa+paMirror)
		}
	}
}

func BenchmarkCurveM10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Curve(10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoissonBinomial100(b *testing.B) {
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = 0.9
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PoissonBinomialTail(probs, 50); err != nil {
			b.Fatal(err)
		}
	}
}
