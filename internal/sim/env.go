// Package sim is the simulation harness: it drives the protocol nodes of
// internal/core over the discrete-event network of internal/simnet under
// virtual time, builds complete worlds (managers, hosts, name service,
// users), runs synchronous operations by stepping the event loop, and
// implements the Monte Carlo experiments that regenerate the paper's
// evaluation (Tables 1-2, Figure 5) against the real protocol code.
package sim

import (
	"time"

	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// Env adapts the simulator to core.Env for one node, optionally applying a
// clock-rate factor to model drifting local clocks (the paper's b bound).
type Env struct {
	id    wire.NodeID
	net   *simnet.Network
	clock vclock.Clock
	rate  float64
}

var _ core.Env = (*Env)(nil)

// NewEnv creates a node environment with a perfect local clock.
func NewEnv(id wire.NodeID, net *simnet.Network) *Env {
	return &Env{id: id, net: net, clock: net.Scheduler().Clock(), rate: 1}
}

// NewDriftingEnv creates a node environment whose local clock runs at the
// given rate relative to simulated real time (rate < 1: slow clock).
func NewDriftingEnv(id wire.NodeID, net *simnet.Network, rate float64) *Env {
	if rate <= 0 {
		rate = 1
	}
	return &Env{
		id:    id,
		net:   net,
		clock: vclock.NewDrifting(net.Scheduler().Clock(), rate),
		rate:  rate,
	}
}

// Now implements core.Env with the node's local (possibly drifted) clock.
func (e *Env) Now() time.Time { return e.clock.Now() }

// Send implements core.Env.
func (e *Env) Send(to wire.NodeID, msg wire.Message) { e.net.Send(e.id, to, msg) }

// SetTimer implements core.Env. The duration is interpreted on the node's
// local clock: a slow clock measures durations slowly, so the timer fires
// after d/rate of simulated real time. The handle can be re-armed with
// Reset, which measures on the same clock.
func (e *Env) SetTimer(d time.Duration, fn func()) core.TimerHandle {
	t := e.net.Scheduler().After(e.realTime(d), fn)
	if e.rate == 1 {
		return t
	}
	return driftTimer{t, e}
}

// realTime converts a duration on the node's local clock to simulated real
// time.
func (e *Env) realTime(d time.Duration) time.Duration {
	if e.rate == 1 {
		return d
	}
	return time.Duration(float64(d) / e.rate)
}

// driftTimer is a drifting node's timer handle: Reset converts its duration
// to real time as SetTimer does.
type driftTimer struct {
	*simnet.Timer
	env *Env
}

func (t driftTimer) Reset(d time.Duration) bool { return t.Timer.Reset(t.env.realTime(d)) }
