// Package simnet is the simulated wide-area network substrate: a
// deterministic discrete-event scheduler driving a message-passing network
// with configurable latency distributions, loss, duplication, link-level
// partitions, and node crashes/recoveries.
//
// The paper's system model (§2.1-2.2) assumes an unreliable network with
// point-to-point and multicast communication where temporary partitions are
// frequent and host failures comparatively rare. simnet implements exactly
// that model, and the evaluation's i.i.d. link-inaccessibility parameter Pi
// maps onto per-link loss/cut probabilities sampled by the harness.
package simnet

import (
	"time"

	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// event is a scheduled callback or message delivery. Cancellable events
// double as their own Timer handle (one allocation instead of two); message
// deliveries carry their payload in typed fields instead of a closure so
// the scheduler can recycle them through a free list — the dominant event
// volume in a simulation is deliveries, and pooling them makes Network.Send
// allocation-free in steady state.
type event struct {
	// at is when the event is due, in nanoseconds since vclock.Epoch. Every
	// simulated instant is Epoch plus whole nanoseconds, no monotonic
	// reading, so these integers order as the time.Time values would.
	at  int64
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()

	// Delivery payload; set (net non-nil) for pooled network deliveries.
	net      *Network
	from, to wire.NodeID
	msg      wire.Message

	// Timer state, used only by cancellable events returned from At/After.
	sched       *Scheduler
	cancellable bool
	stopped     bool
	fired       bool
}

// before is the scheduler's total order: due instant, then scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap of events under before. seq is unique, so
// the order events pop in is fully determined by what was pushed.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for p := (i - 1) / 2; i > 0 && e.before(q[p]); i, p = p, (p-1)/2 {
		q[i] = q[p]
	}
	q[i] = e
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], nil
	*h = q[:n]
	if n > 1 {
		q[:n].down(0)
	}
	return top
}

// down sifts the event at i towards the leaves until neither child precedes
// it.
func (h eventHeap) down(i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Timer is a handle for a scheduled callback that can be cancelled before it
// fires. Stop after firing is a no-op. A Timer is a view of its scheduler
// event, so obtaining one costs no extra allocation.
type Timer event

// Stop cancels the timer. It reports whether the callback was prevented from
// running (false if it already fired or was already stopped). The event
// stays in the scheduler's heap marked dead; the scheduler drops dead
// entries when it reaches them, or compacts the heap eagerly once more than
// half of it is dead — long soak runs that arm and cancel many timers
// (retransmissions, query timeouts) would otherwise accumulate garbage
// until the nominal fire times drain it.
func (t *Timer) Stop() bool {
	if t == nil || t.fired || t.stopped {
		return false
	}
	t.stopped = true
	t.sched.noteStopped()
	return true
}

// Stopped reports whether Stop was called before the timer fired.
func (t *Timer) Stopped() bool { return t != nil && t.stopped }

// Fired reports whether the callback has run.
func (t *Timer) Fired() bool { return t != nil && t.fired }

// maxFreeEvents bounds the delivery-event free list so a burst does not pin
// memory forever.
const maxFreeEvents = 1024

// Scheduler is a single-threaded discrete-event executor over a virtual
// clock. Events run in timestamp order (FIFO among equal timestamps), and
// event callbacks may schedule further events. Schedulers are not safe for
// concurrent use; all protocol activity in a simulation runs on one
// goroutine, which is what makes runs deterministic and fast.
type Scheduler struct {
	clock   *vclock.Virtual
	queue   eventHeap
	seq     uint64
	steps   uint64
	stopped int      // dead (cancelled, undrained) entries in queue
	free    []*event // recycled non-cancellable delivery events
}

// NewScheduler returns an empty scheduler starting at vclock.Epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{clock: vclock.NewVirtual()}
}

// Clock exposes the underlying virtual clock (read-only use recommended;
// advancing it manually does not run due events).
func (s *Scheduler) Clock() *vclock.Virtual { return s.clock }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// Pending returns the number of queued events, including stopped timers not
// yet dropped. Mass cancellations shrink it promptly: the scheduler
// compacts the heap whenever dead entries outnumber live ones.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// nanos converts an instant to the event key: nanoseconds since the epoch.
func nanos(t time.Time) int64 { return int64(t.Sub(vclock.Epoch)) }

// At schedules fn at absolute time t (clamped to now if in the past) and
// returns a cancellable handle.
func (s *Scheduler) At(t time.Time, fn func()) *Timer {
	return s.at(max(nanos(t), nanos(s.Now())), fn)
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.at(nanos(s.Now())+int64(max(d, 0)), fn)
}

func (s *Scheduler) at(ns int64, fn func()) *Timer {
	s.seq++
	e := &event{at: ns, seq: s.seq, fn: fn, sched: s, cancellable: true}
	s.queue.push(e)
	return (*Timer)(e)
}

// scheduleDelivery enqueues a pooled, non-cancellable message delivery d
// from now (the Network fast path: no closure, no Timer, reused event).
func (s *Scheduler) scheduleDelivery(d time.Duration, n *Network, from, to wire.NodeID, msg wire.Message) {
	var e *event
	if k := len(s.free); k > 0 {
		e = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		e = &event{}
	}
	s.seq++
	*e = event{at: nanos(s.Now()) + int64(max(d, 0)), seq: s.seq, net: n, from: from, to: to, msg: msg}
	s.queue.push(e)
}

// recycle returns a drained delivery event to the free list, dropping its
// payload references so messages do not outlive their delivery.
func (s *Scheduler) recycle(e *event) {
	*e = event{}
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, e)
	}
}

// noteStopped records a timer cancellation and compacts the heap once dead
// entries exceed half of it (lazy deletion with an eager threshold: O(n)
// compaction amortized against the >n/2 cancellations that triggered it).
func (s *Scheduler) noteStopped() {
	s.stopped++
	if s.stopped*2 > len(s.queue) {
		s.compact()
	}
}

// compact removes dead (stopped) entries and re-establishes the heap
// invariant. Relative order of live events is preserved by (at, seq).
func (s *Scheduler) compact() {
	live := s.queue[:0]
	for _, e := range s.queue {
		if e.cancellable && e.stopped {
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	s.stopped = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		live.down(i)
	}
}

// DiscardPending drops every queued event without running it. The experiment
// engine calls it between trials on a reused world: in-flight deliveries and
// armed timers from a finished trial must not leak into the next one. The
// clock is unchanged (it only ever moves forward). Outstanding Timer handles
// are marked stopped, so a later Stop() on one is a harmless no-op.
func (s *Scheduler) DiscardPending() {
	for i, e := range s.queue {
		s.queue[i] = nil
		if e.net != nil {
			s.recycle(e)
		} else if e.cancellable {
			e.stopped = true
		}
	}
	s.queue = s.queue[:0]
	s.stopped = 0
}

// Step executes the next due event, advancing the clock to its timestamp.
// It returns false when the queue is empty. Stopped timers are skipped.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.cancellable && e.stopped {
			s.stopped--
			continue
		}
		s.clock.Set(vclock.Epoch.Add(time.Duration(e.at)))
		if e.cancellable {
			e.fired = true
		}
		s.steps++
		if e.net != nil {
			n, from, to, msg := e.net, e.from, e.to, e.msg
			s.recycle(e)
			n.deliver(from, to, msg)
		} else {
			e.fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty. maxSteps (if > 0) bounds the
// number of events as a runaway guard; Run reports whether it drained the
// queue.
func (s *Scheduler) Run(maxSteps uint64) bool {
	var n uint64
	for s.Step() {
		n++
		if maxSteps > 0 && n >= maxSteps {
			return s.Pending() == 0
		}
	}
	return true
}

// RunUntil executes all events with timestamps <= t, then advances the
// clock to t.
func (s *Scheduler) RunUntil(t time.Time) {
	// Peek: queue[0] is the earliest event.
	for ns := nanos(t); len(s.queue) > 0 && s.queue[0].at <= ns; {
		s.Step()
	}
	s.clock.Set(t)
}

// RunFor executes all events in the next d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}
