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
// callback; a node then re-arms its timers in place instead of setting new
// ones.
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

// LentSender is an Env that is lent, as a pointer, each message a node
// builds in place: a check's Query, Response and Busy, an update's Update
// and UpdateAck, a revocation's RevokeNotice and RevokeAck. It copies what
// it keeps before SendLent returns. NewHost and NewManager detect it once;
// everything else goes boxed through Send.
type LentSender interface {
	Env
	SendLent(to wire.NodeID, msg wire.Message)
}

// link is a node's Env with its lent send, nil where it has none.
type link struct {
	Env
	lender LentSender
}

func newLink(env Env) link {
	l, _ := env.(LentSender)
	return link{env, l}
}

// outbound is what a node sends for m, which it leaves alone until its
// sends return: m itself to lend, or m's value boxed once for all its peers.
func outbound[T wire.Message, P interface {
	*T
	wire.Message
}](l link, m P) wire.Message {
	if l.lender != nil {
		return m
	}
	return *m
}

// send hands one peer what outbound returned.
func (l link) send(to wire.NodeID, msg wire.Message) {
	if l.lender != nil {
		l.lender.SendLent(to, msg)
		return
	}
	l.Send(to, msg)
}

// popFree takes the last record off a free list, or returns nil.
func popFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

// timer is a node's one timer for one job (a check's rounds, a record's
// retransmissions, an app's ticks), its callback fn bound once. arm re-arms
// the handle with Reset where it has one, as *time.Timer and the
// simulator's do, and otherwise sets a new one with fn. A firing that Stop
// came too late to prevent (on a live node it waits for the node's lock)
// is counted in stale and discarded by fired, so it never acts on the
// record's next job: a record is recycled with its timer, stale included.
type timer struct {
	handle TimerHandle
	fn     func()
	armed  bool // a firing is awaited
	stale  int
}

// arm schedules fn after d, cancelling the awaited firing.
func (t *timer) arm(env Env, d time.Duration) {
	t.disarm()
	if r, ok := t.handle.(interface{ Reset(time.Duration) bool }); ok {
		r.Reset(d)
	} else {
		t.handle = env.SetTimer(d, t.fn)
	}
	t.armed = true
}

// disarm cancels the awaited firing, counting it stale if already under way.
func (t *timer) disarm() {
	if t.armed && !t.handle.Stop() {
		t.stale++
	}
	t.armed = false
}

// fired, fn's first step under the node's lock, reports whether this is
// the awaited firing, discarding a stale one.
func (t *timer) fired() bool {
	if t.stale > 0 {
		t.stale--
		return false
	}
	t.armed = false
	return true
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
