// Package quorum implements the check/update quorum arithmetic, the check
// round decided by it, and the availability/security analysis of §4.1.
//
// The model: a system has M managers and per-pair site inaccessibility
// probability Pi (i.i.d. in the paper's simplified analysis). A host must
// reach a check quorum of C managers to allow access; a manager must reach
// an update quorum of M-C+1 managers (counting itself) for an update to be
// guaranteed. The paper's two headline quantities are
//
//	PA(C) = P[at least C of M managers accessible to the host]
//	PS(C) = P[the issuing manager reaches at least M-C of the other M-1]
//
// computed with the binomial distribution. This package also provides the
// heterogeneous extension sketched at the end of §4.1 (per-pair
// probabilities, Poisson-binomial tails, frequency-weighted system
// estimates) and parameter-selection helpers.
package quorum

import (
	"errors"
	"fmt"
	"math"
)

// ErrParams reports an invalid (M, C, Pi) combination.
var ErrParams = errors.New("quorum: invalid parameters")

func validate(m, c int, pi float64) error {
	switch {
	case m < 1:
		return fmt.Errorf("%w: M=%d must be >= 1", ErrParams, m)
	case c < 1 || c > m:
		return fmt.Errorf("%w: C=%d must be in [1,M=%d]", ErrParams, c, m)
	case pi < 0 || pi > 1 || math.IsNaN(pi):
		return fmt.Errorf("%w: Pi=%v must be in [0,1]", ErrParams, pi)
	}
	return nil
}

// UpdateQuorum returns the update quorum size M-C+1 corresponding to check
// quorum C, the size that guarantees every update intersects every check
// quorum (§3.3).
func UpdateQuorum(m, c int) int { return m - c + 1 }

// binomTail returns P[X >= k] for X ~ Binomial(n, p), computed by summing
// the probability mass function with exact term recurrence to avoid
// factorial overflow. n is small (managers per application), so direct
// summation is both exact enough and fast.
func binomTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if p <= 0 {
		return 0 // need at least one success but successes are impossible
	}
	if p >= 1 {
		return 1
	}
	q := 1 - p
	// term = C(n,i) p^i q^(n-i), starting at i=0: q^n.
	term := math.Pow(q, float64(n))
	sum := 0.0
	for i := 0; i <= n; i++ {
		if i >= k {
			sum += term
		}
		// Advance to i+1: multiply by (n-i)/(i+1) * p/q.
		term *= float64(n-i) / float64(i+1) * p / q
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// PA returns the availability probability PA(C): the probability that a
// host can reach at least C of the M managers when each is independently
// inaccessible with probability pi (§4.1).
func PA(m, c int, pi float64) (float64, error) {
	if err := validate(m, c, pi); err != nil {
		return 0, err
	}
	return binomTail(m, c, 1-pi), nil
}

// PS returns the security probability PS(C): the probability that the
// manager issuing a revocation reaches at least M-C of the other M-1
// managers — i.e. assembles an update quorum of M-C+1 counting itself —
// within the time bound (§4.1).
func PS(m, c int, pi float64) (float64, error) {
	if err := validate(m, c, pi); err != nil {
		return 0, err
	}
	return binomTail(m-1, m-c, 1-pi), nil
}

// Point is one row of the availability/security tradeoff curve.
type Point struct {
	C  int
	PA float64
	PS float64
}

// Curve evaluates PA and PS for every check quorum C in [1, M], producing
// the data behind Figure 5 and the columns of Tables 1 and 2.
func Curve(m int, pi float64) ([]Point, error) {
	if err := validate(m, 1, pi); err != nil {
		return nil, err
	}
	out := make([]Point, 0, m)
	for c := 1; c <= m; c++ {
		pa, err := PA(m, c, pi)
		if err != nil {
			return nil, err
		}
		ps, err := PS(m, c, pi)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{C: c, PA: pa, PS: ps})
	}
	return out, nil
}

// BestC returns the check quorum maximizing min(PA, PS) — the balanced
// choice the paper observes lies near M/2 — breaking ties toward smaller C
// (cheaper checks, §4.1 overhead is O(C/Te)).
func BestC(m int, pi float64) (Point, error) {
	curve, err := Curve(m, pi)
	if err != nil {
		return Point{}, err
	}
	best := curve[0]
	bestMin := math.Min(best.PA, best.PS)
	for _, p := range curve[1:] {
		if v := math.Min(p.PA, p.PS); v > bestMin {
			best, bestMin = p, v
		}
	}
	return best, nil
}

// PoissonBinomialTail returns P[at least k successes] where trial i
// succeeds independently with probability probs[i]. This generalizes the
// binomial tail to heterogeneous accessibility probabilities (§4.1: "In
// most realistic systems, site inaccessibility probabilities are much more
// heterogeneous"). Computed with the standard O(n^2) dynamic program.
func PoissonBinomialTail(probs []float64, k int) (float64, error) {
	n := len(probs)
	if k <= 0 {
		return 1, nil
	}
	if k > n {
		return 0, nil
	}
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return 0, fmt.Errorf("%w: probs[%d]=%v", ErrParams, i, p)
		}
	}
	// dist[j] = P[j successes among trials seen so far].
	dist := make([]float64, n+1)
	dist[0] = 1
	for i, p := range probs {
		for j := i + 1; j >= 1; j-- {
			dist[j] = dist[j]*(1-p) + dist[j-1]*p
		}
		dist[0] *= 1 - p
	}
	sum := 0.0
	for j := k; j <= n; j++ {
		sum += dist[j]
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// HeteroSystem describes a heterogeneous deployment for the weighted
// analysis at the end of §4.1: per-host-to-manager and per-manager-pair
// accessibility, plus how often each host checks rights and each manager
// issues updates.
type HeteroSystem struct {
	// HostAccess[h][m] is the probability that host h can reach manager m.
	HostAccess [][]float64
	// ManagerAccess[a][b] is the probability manager a can reach manager b
	// (diagonal ignored).
	ManagerAccess [][]float64
	// HostWeight[h] is the relative frequency of access checks at host h.
	// Nil means uniform.
	HostWeight []float64
	// ManagerWeight[a] is the relative frequency of updates issued by
	// manager a. Nil means uniform.
	ManagerWeight []float64
}

// Analyze returns the frequency-weighted system availability and security
// for check quorum c. Availability averages, over hosts, the probability of
// reaching >= c managers; security averages, over issuing managers, the
// probability of reaching >= M-c of the other managers.
func (h HeteroSystem) Analyze(c int) (availability, security float64, err error) {
	numHosts := len(h.HostAccess)
	numMgrs := len(h.ManagerAccess)
	if numHosts == 0 || numMgrs == 0 {
		return 0, 0, fmt.Errorf("%w: empty system", ErrParams)
	}
	if c < 1 || c > numMgrs {
		return 0, 0, fmt.Errorf("%w: C=%d with M=%d", ErrParams, c, numMgrs)
	}

	hw := h.HostWeight
	if hw == nil {
		hw = uniform(numHosts)
	}
	mw := h.ManagerWeight
	if mw == nil {
		mw = uniform(numMgrs)
	}
	if len(hw) != numHosts || len(mw) != numMgrs {
		return 0, 0, fmt.Errorf("%w: weight length mismatch", ErrParams)
	}

	var wa, wsum float64
	for i, row := range h.HostAccess {
		if len(row) != numMgrs {
			return 0, 0, fmt.Errorf("%w: HostAccess[%d] has %d entries, want %d", ErrParams, i, len(row), numMgrs)
		}
		p, err := PoissonBinomialTail(row, c)
		if err != nil {
			return 0, 0, err
		}
		wa += hw[i] * p
		wsum += hw[i]
	}
	if wsum <= 0 {
		return 0, 0, fmt.Errorf("%w: host weights sum to %v", ErrParams, wsum)
	}
	availability = wa / wsum

	var ws, msum float64
	for a, row := range h.ManagerAccess {
		if len(row) != numMgrs {
			return 0, 0, fmt.Errorf("%w: ManagerAccess[%d] has %d entries, want %d", ErrParams, a, len(row), numMgrs)
		}
		others := make([]float64, 0, numMgrs-1)
		for b, p := range row {
			if b == a {
				continue
			}
			others = append(others, p)
		}
		p, err := PoissonBinomialTail(others, numMgrs-c)
		if err != nil {
			return 0, 0, err
		}
		ws += mw[a] * p
		msum += mw[a]
	}
	if msum <= 0 {
		return 0, 0, fmt.Errorf("%w: manager weights sum to %v", ErrParams, msum)
	}
	security = ws / msum
	return availability, security, nil
}

func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Uniform returns a HeteroSystem in which every pair has the same
// accessibility 1-pi: the homogeneous special case, useful for validating
// the heterogeneous path against PA/PS.
func Uniform(hosts, managers int, pi float64) HeteroSystem {
	ha := make([][]float64, hosts)
	for i := range ha {
		row := make([]float64, managers)
		for j := range row {
			row[j] = 1 - pi
		}
		ha[i] = row
	}
	ma := make([][]float64, managers)
	for i := range ma {
		row := make([]float64, managers)
		for j := range row {
			if i != j {
				row[j] = 1 - pi
			} else {
				row[j] = 1
			}
		}
		ma[i] = row
	}
	return HeteroSystem{HostAccess: ha, ManagerAccess: ma}
}
