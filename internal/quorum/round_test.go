package quorum

import (
	"errors"
	"testing"
)

func TestNew(t *testing.T) {
	for _, bad := range []struct{ m, c int }{{0, 1}, {3, 0}, {3, 4}, {MaxManagers + 1, 1}, {-1, 1}} {
		if _, err := New(bad.m, bad.c); !errors.Is(err, ErrParams) {
			t.Errorf("New(%d, %d) = %v, want ErrParams", bad.m, bad.c, err)
		}
	}
	if s, err := New(MaxManagers, 1); err != nil || s != (System{M: MaxManagers, C: 1}) {
		t.Errorf("New(%d, 1) = %+v, %v", MaxManagers, s, err)
	}
	if First(0) != 0 || First(3) != 0b111 || First(MaxManagers).Len() != MaxManagers || First(-1) != 0 {
		t.Error("First does not hold exactly the first n positions")
	}
}

// TestRoundExhaustive searches, breadth first, every Round state reachable
// for every M <= 8 and every C: from each set of managers asked, any asked
// manager may answer grant, deny or abstain, repeats included, and a Widen
// asks the rest. Every answer is judged against the rule written out in
// counts, independently of the kernel's predicates:
//   - a repeated answer changes nothing and returns Wait;
//   - Allow exactly when C distinct managers have granted;
//   - Deny exactly when so many denied that fewer than C remain to grant;
//   - Widen exactly when fewer than M are asked and no way the awaited
//     answers could go reaches C grants or M-C+1 denials;
//   - otherwise Wait.
//
// It also checks the fact the protocol's safety rests on (§3.3): every check
// quorum meets every update quorum.
func TestRoundExhaustive(t *testing.T) {
	for m := 1; m <= 8; m++ {
		for c := 1; c <= m; c++ {
			sys, err := New(m, c)
			if err != nil {
				t.Fatal(err)
			}
			checkIntersection(t, sys)
			if n := exploreRounds(t, sys); n == 0 {
				t.Fatalf("M=%d C=%d: no state explored", m, c)
			}
		}
	}
}

// checkIntersection enumerates every pair of position sets.
func checkIntersection(t *testing.T, sys System) {
	t.Helper()
	all := First(sys.M)
	for g := Set(0); g <= all; g++ {
		if sys.Allows(g) != (g.Len() >= sys.C) {
			t.Fatalf("M=%d C=%d: Allows(%b) = %v", sys.M, sys.C, g, sys.Allows(g))
		}
		if sys.IsUpdateQuorum(g) != (g.Len() >= sys.M-sys.C+1) || sys.Denies(g) != sys.IsUpdateQuorum(g) {
			t.Fatalf("M=%d C=%d: IsUpdateQuorum(%b) = %v, Denies = %v", sys.M, sys.C, g, sys.IsUpdateQuorum(g), sys.Denies(g))
		}
		if !sys.Allows(g) {
			continue
		}
		for u := Set(0); u <= all; u++ {
			if sys.IsUpdateQuorum(u) && g&u == 0 {
				t.Fatalf("M=%d C=%d: check quorum %b misses update quorum %b", sys.M, sys.C, g, u)
			}
		}
	}
}

// exploreRounds runs the search for one system and returns the number of
// states it visited.
func exploreRounds(t *testing.T, sys System) int {
	t.Helper()
	m, c := sys.M, sys.C
	all := First(m)
	seen := make([]bool, pow5(m))
	var queue []Round
	visit := func(r Round) {
		if k := encode(r, m); !seen[k] {
			seen[k] = true
			queue = append(queue, r)
		}
	}
	for asked := Set(1); asked <= all; asked++ {
		visit(Round{Asked: asked})
	}
	visited := 0
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		visited++
		for pos := 0; pos < m; pos++ {
			if !r.Asked.Has(pos) {
				continue
			}
			for _, v := range []Vote{VoteGrant, VoteDeny, VoteAbstain} {
				next := r
				got := next.Answer(sys, pos, v)
				if r.Answered.Has(pos) {
					if got != Wait || next != r {
						t.Fatalf("M=%d C=%d %+v: repeated answer from %d gave %v and %+v", m, c, r, pos, got, next)
					}
					continue
				}
				granted, denied := next.Granted.Len(), next.Denied.Len()
				waiting := (next.Asked &^ next.Answered).Len()
				want := Wait
				switch {
				case granted >= c:
					want = Allow
				case m-denied < c:
					want = Deny
				case next.Asked.Len() < m && granted+waiting < c && denied+waiting <= m-c:
					want = Widen
				}
				if got != want {
					t.Fatalf("M=%d C=%d %+v: answer %v from %d gave %v, want %v (%d granted, %d denied, %d awaited)",
						m, c, r, v, pos, got, want, granted, denied, waiting)
				}
				switch got {
				case Widen:
					next.Asked = all
					visit(next)
				case Wait:
					visit(next)
				}
			}
		}
	}
	return visited
}

// encode maps a round over m positions to a distinct index below 5^m: each
// position is unasked, awaited, granted, denied or abstained.
func encode(r Round, m int) int {
	k := 0
	for pos := m - 1; pos >= 0; pos-- {
		d := 0
		switch {
		case r.Granted.Has(pos):
			d = 2
		case r.Denied.Has(pos):
			d = 3
		case r.Answered.Has(pos):
			d = 4
		case r.Asked.Has(pos):
			d = 1
		}
		k = 5*k + d
	}
	return k
}

func pow5(m int) int {
	n := 1
	for range m {
		n *= 5
	}
	return n
}
