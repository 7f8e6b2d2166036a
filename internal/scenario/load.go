package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"wanac/internal/wire"
)

// Curve shapes the scenario's check-arrival rate over time. Arrivals are a
// non-homogeneous Poisson process: the runner draws exponential gaps at the
// instantaneous rate, so bursts and lulls follow the curve.
type Curve interface {
	// Rate returns the target arrival rate in checks per second at time t
	// since scenario start.
	Rate(t time.Duration) float64
	// Describe names the curve for scenario listings.
	Describe() string
}

// Steady issues checks at a constant rate.
type Steady struct{ RPS float64 }

// Rate implements Curve.
func (s Steady) Rate(time.Duration) float64 { return s.RPS }

// Describe implements Curve.
func (s Steady) Describe() string { return fmt.Sprintf("steady %.3grps", s.RPS) }

// Diurnal models the day/night cycle as a raised cosine between Base
// (trough, at t=0) and Peak, with the given Period per full cycle.
type Diurnal struct {
	Base, Peak float64
	Period     time.Duration
}

// Rate implements Curve.
func (d Diurnal) Rate(t time.Duration) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	phase := 2 * math.Pi * float64(t) / float64(d.Period)
	return d.Base + (d.Peak-d.Base)*(1-math.Cos(phase))/2
}

// Describe implements Curve.
func (d Diurnal) Describe() string {
	return fmt.Sprintf("diurnal %.3g-%.3grps/%s", d.Base, d.Peak, d.Period)
}

// FlashCrowd runs at Base, then at At ramps linearly to Peak over Rise,
// holds for Sustain, and decays back over Fall — the on-line magazine's
// traffic spike (§2.3).
type FlashCrowd struct {
	Base, Peak float64
	At         time.Duration // when the ramp starts
	Rise       time.Duration // ramp-up duration
	Sustain    time.Duration // time at Peak
	Fall       time.Duration // ramp-down duration
}

// Rate implements Curve.
func (f FlashCrowd) Rate(t time.Duration) float64 {
	switch {
	case t < f.At:
		return f.Base
	case t < f.At+f.Rise:
		frac := float64(t-f.At) / float64(f.Rise)
		return f.Base + (f.Peak-f.Base)*frac
	case t < f.At+f.Rise+f.Sustain:
		return f.Peak
	case t < f.At+f.Rise+f.Sustain+f.Fall:
		frac := float64(t-f.At-f.Rise-f.Sustain) / float64(f.Fall)
		return f.Peak - (f.Peak-f.Base)*frac
	default:
		return f.Base
	}
}

// Describe implements Curve.
func (f FlashCrowd) Describe() string {
	return fmt.Sprintf("flash %.3g→%.3grps@%s", f.Base, f.Peak, f.At)
}

// Population describes who the checks are for: Users is the total simulated
// population (may be millions — only identifiers are materialized, never
// per-user state), sampled by Zipf rank so a handful of users dominate
// traffic. The top Authorized ranks are ACL-seeded with the use right; the
// long tail exercises the deny path.
type Population struct {
	// Users is the population size. Zero means 10 000.
	Users int
	// ZipfS is the Zipf exponent (must exceed 1; zero means 1.2 — mildly
	// skewed). Values near 1 flatten the curve, larger values concentrate
	// traffic on the top ranks.
	ZipfS float64
	// Authorized is how many top ranks hold the use right. Zero means 64.
	Authorized int
}

func (p Population) withDefaults() Population {
	if p.Users == 0 {
		p.Users = 10000
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.2
	}
	if p.Authorized == 0 {
		p.Authorized = 64
	}
	if p.Authorized > p.Users {
		p.Authorized = p.Users
	}
	return p
}

// Describe names the population for scenario listings.
func (p Population) Describe() string {
	p = p.withDefaults()
	return fmt.Sprintf("%s users zipf(%.3g) %d authorized", humanCount(p.Users), p.ZipfS, p.Authorized)
}

func humanCount(n int) string {
	switch {
	case n >= 1_000_000 && n%100_000 == 0:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000 && n%100 == 0:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

// sampler draws user ranks for one run.
type sampler struct {
	zipf  *rand.Zipf
	users []wire.UserID // AuthorizedUsers: the top ranks' ids, already made
}

func (p Population) sampler(rng *rand.Rand, users []wire.UserID) *sampler {
	p = p.withDefaults()
	return &sampler{zipf: rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Users-1)), users: users}
}

// draw returns the next user by popularity rank (rank 0 most popular): a
// seeded user's id as AuthorizedUsers made it, any other formatted in one
// allocation.
func (s *sampler) draw() wire.UserID {
	rank := int(s.zipf.Uint64())
	if rank < len(s.users) {
		return s.users[rank]
	}
	return userID(rank)
}

// userID names the user at a popularity rank; the top Population.Authorized
// ranks are the seeded (granted) users.
func userID(rank int) wire.UserID {
	var b [24]byte
	return wire.UserID(strconv.AppendInt(append(b[:0], 'u'), int64(rank), 10))
}

// AuthorizedUsers materializes the seeded user list.
func (p Population) AuthorizedUsers() []wire.UserID {
	p = p.withDefaults()
	users := make([]wire.UserID, p.Authorized)
	for i := range users {
		users[i] = userID(i)
	}
	return users
}
