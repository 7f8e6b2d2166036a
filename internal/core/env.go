// Package core implements the paper's wide-area access control protocol:
// the application-host side (Figures 2-4: cached checks, time-based
// expiration, retry, high-availability default) and the manager side (§3.1,
// §3.3-3.4: authoritative ACLs, persistent update dissemination with
// check/update quorums, revocation forwarding, the freeze strategy, and
// crash recovery).
//
// Nodes are event-driven state machines over a small Env interface, so the
// identical protocol code runs under the deterministic virtual-time
// simulator (internal/sim), a goroutine runtime with real clocks, and the
// TCP transport (internal/tcpnet).
package core

import (
	"time"

	"wanac/internal/wire"
)

// TimerHandle cancels a pending timer. Implementations must make Stop
// idempotent and safe after firing. A handle that also has
// Reset(time.Duration) bool, as *time.Timer does, must reschedule the same
// callback; a host then re-arms a check's timer in place instead of setting
// a new one.
type TimerHandle interface {
	// Stop cancels the timer, reporting whether the callback was prevented
	// from running.
	Stop() bool
}

// Env is everything a protocol node needs from its surroundings: a local
// clock (possibly drifting), an unreliable message send, and one-shot
// timers. Callbacks (message handlers and timer functions) must never run
// concurrently for the same node; both the simulator and the live runtime
// guarantee this by driving each node from a single goroutine, and the
// nodes additionally serialize with an internal mutex as defense in depth.
type Env interface {
	// Now returns the node's local clock reading.
	Now() time.Time
	// Send transmits msg to the named node. Delivery is not guaranteed.
	Send(to wire.NodeID, msg wire.Message)
	// SetTimer schedules fn after d on the node's local clock and returns a
	// cancellable handle.
	SetTimer(d time.Duration, fn func()) TimerHandle
}

// CheckSender is an optional upgrade of Env for the three messages of a
// check (Figure 2): an Env that has it carries a Query, Response or Busy to
// its peer without boxing it in a wire.Message. The message is lent
// for the call; the Env copies what it keeps. NewHost and NewManager detect
// the upgrade once, and Send stays what every Env must offer.
type CheckSender interface {
	SendQuery(to wire.NodeID, q *wire.Query)
	SendResponse(to wire.NodeID, r *wire.Response)
	SendBusy(to wire.NodeID, b *wire.Busy)
}

// Application is the wrapped application component of Figure 1: it sees
// only messages the access control layer has admitted, and never needs to
// perform its own access checks.
type Application interface {
	// Serve handles an authorized request payload from user and returns the
	// response payload.
	Serve(user wire.UserID, payload []byte) []byte
}

// ApplicationFunc adapts a function to Application.
type ApplicationFunc func(user wire.UserID, payload []byte) []byte

// Serve implements Application.
func (f ApplicationFunc) Serve(user wire.UserID, payload []byte) []byte { return f(user, payload) }
