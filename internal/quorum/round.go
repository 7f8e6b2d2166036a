package quorum

import (
	"fmt"
	"math/bits"
)

// MaxManagers bounds M: a Set holds one bit per manager position.
const MaxManagers = 64

// Set is a set of manager positions in [0, MaxManagers), one bit each.
type Set uint64

// First returns the set of positions 0..n-1 (all of them for n >= 64).
func First(n int) Set { return Set(1)<<max(n, 0) - 1 }

// Has reports whether position i is in s.
func (s Set) Has(i int) bool { return s&(1<<i) != 0 }

// With returns s with position i added.
func (s Set) With(i int) Set { return s | 1<<i }

// Len returns the number of positions in s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// System is the flat quorum system of §3.3: a check quorum is any C of the M
// managers and an update quorum any M-C+1, so every check quorum meets every
// update quorum. It is the one statement of that arithmetic: a host's check
// round, a manager's update quorum and the audit oracle all decide by it.
type System struct{ M, C int }

// New returns the system with check quorum c over m managers,
// 1 <= c <= m <= MaxManagers.
func New(m, c int) (System, error) {
	if m > MaxManagers {
		return System{}, fmt.Errorf("%w: M=%d managers, at most %d", ErrParams, m, MaxManagers)
	}
	if err := validate(m, c, 0); err != nil {
		return System{}, err
	}
	return System{M: m, C: c}, nil
}

// Allows reports whether grants is a check quorum: C distinct managers.
func (s System) Allows(grants Set) bool { return grants.Len() >= s.C }

// IsUpdateQuorum reports whether acked, the origin included, is an update
// quorum: M-C+1 managers, which meets every check quorum.
func (s System) IsUpdateQuorum(acked Set) bool { return acked.Len() >= UpdateQuorum(s.M, s.C) }

// Denies reports whether denials rule out every check quorum: they form an
// update quorum, so more than M-C managers deny and no C of the M can grant.
func (s System) Denies(denials Set) bool { return s.IsUpdateQuorum(denials) }

// Vote is one manager's answer to a round's query.
type Vote uint8

const (
	VoteGrant   Vote = iota // the manager holds the right
	VoteDeny                // the manager does not hold the right
	VoteAbstain             // frozen: the manager withholds its answer (§3.3)
)

// Outcome is what a round calls for after an answer.
type Outcome uint8

const (
	Wait  Outcome = iota // undecided: the managers asked may still decide it
	Allow                // C distinct managers granted
	Deny                 // the denials rule out every check quorum
	Widen                // the managers asked cannot decide: ask the rest
)

// Round is one query round of a check (Figure 2's loop body, generalized to
// quorum C): the managers asked, which of them answered, and how.
type Round struct{ Asked, Answered, Granted, Denied Set }

// Answer records the vote of the manager at position pos and returns what the
// round now calls for. A manager counts once per round: a repeated answer
// changes nothing and returns Wait. Widen comes when fewer than M are asked
// and the answers awaited cannot decide the round, whatever they say (one
// denial does not mean the right is revoked everywhere); with all M asked the
// round waits for its timeout.
func (r *Round) Answer(s System, pos int, v Vote) Outcome {
	if r.Answered.Has(pos) {
		return Wait
	}
	r.Answered = r.Answered.With(pos)
	switch v {
	case VoteGrant:
		r.Granted = r.Granted.With(pos)
		if s.Allows(r.Granted) {
			return Allow
		}
	case VoteDeny:
		r.Denied = r.Denied.With(pos)
		if s.Denies(r.Denied) {
			return Deny
		}
	}
	waiting := r.Asked &^ r.Answered
	if r.Asked.Len() < s.M && !s.Allows(r.Granted|waiting) && !s.Denies(r.Denied|waiting) {
		return Widen
	}
	return Wait
}
