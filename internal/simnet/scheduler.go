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

// event is a scheduled callback, message delivery or service completion.
// Callback events double as their own Timer handle (one allocation instead
// of two) and can be re-armed, so a handle is allocated once for as many
// firings as its owner wants. Deliveries and service completions carry their
// payload in typed fields instead of a closure so the scheduler can recycle
// them through a free list — they are the dominant event volume in a
// simulation, and pooling them, with the copies of lent messages the
// network keeps for reuse (held), makes a send and a capacity-modelled
// node's service allocation-free in steady state.
type event struct {
	// at is when the event is due, in the clock's own unit: nanoseconds
	// since vclock.Epoch (Virtual.Nanos), so no step builds a time.Time.
	at  int64
	seq uint64 // tie-breaker: FIFO among events at the same instant
	// pos is the event's heap index plus one, 0 while it is not queued.
	pos int
	fn  func()

	// Pooled payload, set (net non-nil) for a message delivery, or with cs
	// set for the completion of cs's service of the message it holds.
	net  *Network
	from wire.NodeID
	to   *Node
	msg  wire.Message
	cs   *capacity

	// Timer state, used only by callback events returned from At/After.
	sched   *Scheduler
	stopped bool
	fired   bool
}

// before is the scheduler's total order: due instant, then scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap of events under before, each event knowing
// its own index. seq is unique, so the order events pop in is fully
// determined by what was pushed.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], nil
	*h = q[:n]
	if n > 0 {
		q[:n].down(0)
	}
	top.pos = 0
	return top
}

func (h eventHeap) set(i int, e *event) {
	h[i] = e
	e.pos = i + 1
}

// up sifts the event at i towards the root while it precedes its parent.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, e)
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
		h.set(i, h[c])
		i = c
	}
	h.set(i, e)
}

// Timer is a handle for a scheduled callback that can be cancelled before it
// fires and re-armed at any time. Stop after firing is a no-op. A Timer is a
// view of its scheduler event, so obtaining one costs no extra allocation,
// and re-arming costs none either.
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

// Reset re-arms the timer to run its callback d from now, whatever its state
// — pending, stopped, fired or discarded — and reports whether it was
// pending, as (*time.Timer).Reset does. The firing takes its place in the
// scheduling order at the call, exactly as After at the same point would, so
// re-arming a handle fires in the order replacing it with a new one would.
// A queued entry, live or dead, moves in place; anything else is queued
// again.
func (t *Timer) Reset(d time.Duration) bool {
	e, s := (*event)(t), t.sched
	pending := e.pos > 0 && !e.stopped
	if e.pos > 0 && e.stopped {
		s.stopped--
	}
	e.stopped, e.fired = false, false
	s.seq++
	e.at, e.seq = s.clock.Nanos()+int64(max(d, 0)), s.seq
	if e.pos > 0 {
		s.queue.up(e.pos - 1)
		s.queue.down(e.pos - 1)
	} else {
		s.queue.push(e)
	}
	return pending
}

// maxFreeEvents bounds the pooled-event free list so a burst does not pin
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
	stopped int      // dead (cancelled, undrained) entries in queue
	free    []*event // recycled delivery and service-completion events
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

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.at(s.clock.Nanos()+int64(max(d, 0)), fn)
}

func (s *Scheduler) at(ns int64, fn func()) *Timer {
	s.seq++
	e := &event{at: ns, seq: s.seq, fn: fn, sched: s}
	s.queue.push(e)
	return (*Timer)(e)
}

// pooled enqueues a recycled event d from now and returns it for the caller
// to fill in its payload.
func (s *Scheduler) pooled(d time.Duration) *event {
	var e *event
	if k := len(s.free); k > 0 {
		e = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		e = &event{}
	}
	s.seq++
	e.at, e.seq = s.clock.Nanos()+int64(max(d, 0)), s.seq
	s.queue.push(e)
	return e
}

// scheduleDelivery enqueues a pooled message delivery d from now (the
// Network fast path: no closure, no Timer, reused event).
func (s *Scheduler) scheduleDelivery(d time.Duration, n *Network, from wire.NodeID, to *Node, msg wire.Message) {
	e := s.pooled(d)
	e.net, e.from, e.to, e.msg = n, from, to, msg
}

// recycle returns a drained pooled event to the free list, dropping its
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
		if e.stopped {
			e.pos = 0
			continue
		}
		live = append(live, e)
		e.pos = len(live)
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
			e.net.held.give(e.msg)
			s.recycle(e)
		} else {
			e.stopped = true
			e.pos = 0
		}
	}
	s.queue = s.queue[:0]
	s.stopped = 0
}

// head returns the earliest live event, first dropping the stopped timers
// queued ahead of it, or nil when nothing live is queued.
func (s *Scheduler) head() *event {
	for len(s.queue) > 0 {
		if e := s.queue[0]; !e.stopped {
			return e
		}
		s.queue.pop()
		s.stopped--
	}
	return nil
}

// Step executes the next due event, advancing the clock to its timestamp.
// It returns false when the queue is empty. Stopped timers are skipped.
func (s *Scheduler) Step() bool {
	if s.head() == nil {
		return false
	}
	e := s.queue.pop()
	s.clock.SetNanos(e.at)
	if e.net != nil {
		n, from, to, msg, cs := e.net, e.from, e.to, e.msg, e.cs
		s.recycle(e)
		if cs != nil {
			n.served(cs)
		} else {
			n.deliver(from, to, msg)
		}
	} else {
		e.fired = true
		e.fn()
	}
	return true
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
	for ns := int64(t.Sub(vclock.Epoch)); ; {
		if e := s.head(); e == nil || e.at > ns {
			break
		}
		s.Step()
	}
	s.clock.Set(t)
}

// RunFor executes all events in the next d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}
