// Package vclock provides the clock substrate for the access control
// protocol: real clocks, deterministic virtual clocks for discrete-event
// simulation, and drifting clocks that model the paper's bounded clock-rate
// assumption (every local clock is at most a factor b slower than real time).
//
// The protocol code never reads time.Now directly; it always goes through a
// Clock so that the same code runs in real deployments, goroutine-based
// integration tests, and fast-forward Monte Carlo simulations.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is the minimal time source the protocol depends on.
type Clock interface {
	// Now returns the current reading of this clock. For a Drifting clock
	// this is local (skewed) time, not real time.
	Now() time.Time
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Drifting wraps a base clock and applies a constant rate factor, modeling
// the paper's assumption b*Ci(t) <= t: a clock with Rate r measures r local
// time units per real time unit. Rate < 1 means the clock runs slow (the
// worst case for expiration-based revocation), Rate > 1 means it runs fast.
type Drifting struct {
	base   Clock
	origin time.Time
	rate   float64
}

var _ Clock = (*Drifting)(nil)

// NewDrifting returns a clock that reads origin + rate*(base.Now()-origin).
// The origin anchors the skew so that drift accumulates from a known point.
func NewDrifting(base Clock, rate float64) *Drifting {
	return &Drifting{base: base, origin: base.Now(), rate: rate}
}

// Now returns the drifted local time.
func (d *Drifting) Now() time.Time {
	elapsed := d.base.Now().Sub(d.origin)
	return d.origin.Add(time.Duration(float64(elapsed) * d.rate))
}

// Rate returns the configured clock rate.
func (d *Drifting) Rate() float64 { return d.rate }

// Virtual is a manually advanced clock for deterministic discrete-event
// simulation. It is safe for concurrent use without a lock — the simulator
// reads it several times per event from the one goroutine that drives it —
// and readings never decrease.
type Virtual struct {
	ns atomic.Int64 // nanoseconds since Epoch
}

var _ Clock = (*Virtual)(nil)

// Epoch is the default start time for virtual clocks: an arbitrary fixed
// instant so simulation traces are reproducible byte-for-byte.
var Epoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at Epoch.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return Epoch.Add(time.Duration(v.ns.Load())) }

// Advance moves the clock forward by d. Negative d is ignored: virtual time
// never goes backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d > 0 {
		v.ns.Add(int64(d))
	}
}

// Set jumps the clock to t if t is not before the current time.
func (v *Virtual) Set(t time.Time) {
	ns := int64(t.Sub(Epoch))
	for {
		cur := v.ns.Load()
		if ns <= cur || v.ns.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ExpirationPeriod converts a desired global revocation bound Te into the
// local expiration period te = Te*b that managers hand to application hosts
// (§3.2). The paper assumes a known constant b with b*Ci(t) <= t (0 < b <= 1):
// measuring t local units takes at most t/b real units, i.e. every local
// clock is at most a factor 1/b slower than real time. A host that expires a
// cached right after te = Te*b local units therefore holds it for at most
// te/b = Te real units, so revocation is guaranteed within Te even on the
// slowest legal clock.
func ExpirationPeriod(te time.Duration, b float64) time.Duration {
	if b <= 0 || b > 1 {
		return te
	}
	return time.Duration(float64(te) * b)
}
