package simnet

import (
	"math/rand"
	"testing"
	"time"

	"wanac/internal/vclock"
	"wanac/internal/wire"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	if !s.Run(0) {
		t.Fatal("Run did not drain")
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got, want := s.Now(), vclock.Epoch.Add(30*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.After(time.Millisecond, func() {
		fired = append(fired, "outer")
		s.After(time.Millisecond, func() { fired = append(fired, "inner") })
	})
	s.Run(0)
	if len(fired) != 2 || fired[0] != "outer" || fired[1] != "inner" {
		t.Errorf("fired = %v", fired)
	}
	if got, want := s.Now(), vclock.Epoch.Add(2*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Error("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	s.Run(0)
	if ran {
		t.Error("stopped timer fired")
	}
	if !tm.stopped || tm.fired {
		t.Error("timer state inconsistent after stop")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.After(0, func() {})
	s.Run(0)
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
	if !tm.fired {
		t.Error("timer not marked fired after firing")
	}
}

// TestTimerReset re-arms one handle through each of its states, as
// (*time.Timer).Reset would: it reports whether the timer was pending, and
// the callback runs once per arming at the new instant.
func TestTimerReset(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	tm := s.After(time.Second, func() { at = append(at, s.Now().Sub(vclock.Epoch)) })
	if !tm.Reset(2 * time.Second) { // pending: moved in place
		t.Error("Reset of a pending timer reported it idle")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d after an in-place Reset, want 1", s.Pending())
	}
	s.Run(0)
	if tm.Reset(time.Second) { // fired: queued again
		t.Error("Reset of a fired timer reported it pending")
	}
	s.Run(0)
	s.After(time.Hour, func() {}) // one live entry, so one dead one stays queued
	tm.Reset(time.Second)
	tm.Stop()
	if tm.Reset(time.Second) { // stopped in the heap: revived in place
		t.Error("Reset of a stopped timer reported it pending")
	}
	if s.Pending() != 2 || s.stopped != 0 {
		t.Errorf("Pending() = %d, %d dead after reviving, want 2 and 0", s.Pending(), s.stopped)
	}
	s.RunFor(time.Second)
	tm.Reset(time.Second)
	s.DiscardPending()
	if tm.Reset(time.Second) { // discarded: queued again
		t.Error("Reset of a discarded timer reported it pending")
	}
	s.Run(0)
	want := []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
	if !tm.fired || tm.stopped {
		t.Error("timer state inconsistent after its last firing")
	}
}

func TestNilTimerStop(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Error("nil timer's Stop should be a false no-op")
	}
}

func TestSchedulerPastEventClamped(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	s.Run(0)
	fired := false
	s.After(-time.Second, func() { fired = true }) // in the past
	s.Run(0)
	if !fired {
		t.Error("past-scheduled event did not run")
	}
	if s.Now().Before(vclock.Epoch.Add(time.Second)) {
		t.Error("clock went backwards")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	s.After(30*time.Millisecond, func() { fired = append(fired, 2) })
	s.RunUntil(vclock.Epoch.Add(20 * time.Millisecond))
	if len(fired) != 1 || fired[0] != 1 {
		t.Errorf("fired = %v, want [1]", fired)
	}
	if got, want := s.Now(), vclock.Epoch.Add(20*time.Millisecond); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.RunFor(10 * time.Millisecond)
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both", fired)
	}
}

// TestRunUntilStoppedHead is the regression test for a stopped timer at the
// head of the queue: RunUntil used to see it due, let Step skip it and run
// the next live event even though that one was due after the bound, leaving
// the clock past the bound.
func TestRunUntilStoppedHead(t *testing.T) {
	s := NewScheduler()
	stopped := s.After(10*time.Millisecond, func() {})
	ran := false
	s.After(30*time.Millisecond, func() { ran = true })
	stopped.Stop() // 1 dead of 2: not compacted, so it heads the queue
	bound := vclock.Epoch.Add(20 * time.Millisecond)
	s.RunUntil(bound)
	if ran {
		t.Error("RunUntil ran an event due after its bound")
	}
	if !s.Now().Equal(bound) {
		t.Errorf("Now() = %v, want %v", s.Now(), bound)
	}
}

func TestRunMaxSteps(t *testing.T) {
	s := NewScheduler()
	// Self-perpetuating event chain: Run must bail at maxSteps.
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(0, tick)
	if s.Run(100) {
		t.Error("Run claimed to drain an infinite chain")
	}
	if got := s.Now().Sub(vclock.Epoch); got < 99*time.Millisecond {
		t.Errorf("Run stopped at %v, want 100 steps of 1ms", got)
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run(0)
	if !fired {
		t.Error("negative-delay event did not run")
	}
	if !s.Now().Equal(vclock.Epoch) {
		t.Errorf("clock moved: %v", s.Now())
	}
}

// TestStoppedTimerCompaction is the regression test for the stopped-timer
// leak: cancelled timers used to sit in the heap until their nominal fire
// time, so long soak runs accumulated dead entries. The scheduler now
// compacts once more than half the heap is dead, so Pending() must shrink
// promptly after a mass cancellation.
func TestStoppedTimerCompaction(t *testing.T) {
	s := NewScheduler()
	timers := make([]*Timer, 0, 100)
	for i := 0; i < 100; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Hour, func() {}))
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending() = %d, want 100", s.Pending())
	}
	// Stop 60 of 100: the >50% threshold must trip during the loop and
	// compact the heap, hours of virtual time before the dead entries would
	// have drained on their own. Lazy deletion may leave a sub-threshold
	// tail of dead entries, but never more dead than live ones.
	for i := 0; i < 60; i++ {
		if !timers[i].Stop() {
			t.Fatalf("Stop %d returned false", i)
		}
	}
	if live := 40; s.Pending() > 2*live {
		t.Errorf("Pending() = %d after mass Stop, want <= %d (heap not compacted)", s.Pending(), 2*live)
	}
	if s.Pending() >= 100 {
		t.Errorf("Pending() = %d, did not shrink after mass Stop", s.Pending())
	}
	// The surviving timers still fire, in order.
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 40 {
		t.Errorf("fired %d events, want 40", fired)
	}
}

// TestCompactionPreservesOrder stops every other timer across the threshold
// and checks that surviving events still run in (time, FIFO) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := NewScheduler()
	var fired []int
	var timers []*Timer
	for i := 0; i < 64; i++ {
		i := i
		timers = append(timers, s.After(time.Duration(1+i/8)*time.Second, func() { fired = append(fired, i) }))
	}
	for i := 0; i < 64; i += 2 {
		timers[i].Stop()
	}
	s.Run(0)
	if len(fired) != 32 {
		t.Fatalf("fired %d, want 32", len(fired))
	}
	for j := 1; j < len(fired); j++ {
		if fired[j-1] >= fired[j] {
			t.Fatalf("order violated: %v", fired)
		}
	}
}

// TestStopAccountingAcrossStep stops timers that Step then skips naturally,
// ensuring the dead-entry counter stays consistent with the heap.
func TestStopAccountingAcrossStep(t *testing.T) {
	s := NewScheduler()
	a := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	a.Stop() // 1 dead of 2: below threshold, stays queued
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2 (lazy deletion below threshold)", s.Pending())
	}
	s.Run(0)
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain, want 0", s.Pending())
	}
	// Further stops on drained/fired timers must not corrupt the counter.
	a.Stop()
	b := s.After(time.Millisecond, func() {})
	b.Stop()
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0 after compaction of sole dead entry", s.Pending())
	}
}

// TestDiscardPending covers the between-trials reset used by the experiment
// engine: all queued work vanishes, outstanding Timer handles become inert,
// and the scheduler remains usable.
func TestDiscardPending(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	s.After(time.Second, func() { fired = true })
	s.DiscardPending()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after discard, want 0", s.Pending())
	}
	s.Run(0)
	if fired {
		t.Error("discarded event fired")
	}
	if tm.Stop() {
		t.Error("Stop on a discarded timer returned true")
	}
	ran := false
	s.After(time.Millisecond, func() { ran = true })
	s.Run(0)
	if !ran {
		t.Error("scheduler unusable after DiscardPending")
	}
}

// TestSchedulerOrderProperty drives the scheduler with a seeded mix of At,
// After, pooled deliveries, Stop (in bursts large enough to trigger
// compact), Reset of timers in every state (pending, stopped in the heap,
// compacted out, discarded, fired), DiscardPending, RunUntil, and callbacks
// that schedule further events, and checks every firing against a reference
// that knows nothing about heaps: the pending set kept as a flat list, whose
// next event is the one with the smallest (at, scheduling order). The order
// of firings is what every golden and oracle downstream depends on. After
// every operation the heap's positions and its dead-entry count must match a
// recount.
func TestSchedulerOrderProperty(t *testing.T) {
	type pending struct {
		at time.Time
		id uint64
	}
	// handle is a timer and the id its current arming fires as; Reset gives
	// it a new one.
	type handle struct {
		t  *Timer
		id uint64
	}
	// resets counts the re-armed timers by state: pending, stopped in the
	// heap, stopped out of it (compacted or discarded), fired.
	var resets [4]int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		n := New(s, Config{})
		var (
			model  []pending // scheduled, not yet fired, stopped or discarded; ids ascend
			timers []*handle // every timer made, in creation order
			nextID uint64
			fired  int
		)
		remove := func(id uint64) bool {
			for i, p := range model {
				if p.id == id {
					model = append(model[:i], model[i+1:]...)
					return true
				}
			}
			return false
		}
		// Delays come from a handful of values so equal instants, the FIFO
		// case, are common.
		delay := func() time.Duration { return time.Duration(rng.Intn(6)) * time.Millisecond }
		var schedule func(depth int)
		// fire is what every event runs: whoever stepped the scheduler, the
		// event must be the reference's next one, at its own instant.
		fire := func(id uint64, depth int) {
			if len(model) == 0 {
				t.Fatalf("seed %d: event %d fired with nothing pending", seed, id)
			}
			want := model[0]
			for _, p := range model[1:] {
				if p.at.Before(want.at) { // ties keep the earlier id
					want = p
				}
			}
			if id != want.id {
				t.Fatalf("seed %d: event %d fired, want event %d", seed, id, want.id)
			}
			if !s.Now().Equal(want.at) {
				t.Fatalf("seed %d: event %d ran at %v, want %v", seed, id, s.Now(), want.at)
			}
			remove(id)
			fired++
			if depth < 3 && rng.Intn(3) == 0 {
				schedule(depth + 1)
			}
		}
		n.Attach("dst", HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
			fire(msg.(wire.Heartbeat).Nonce, 0)
		}))
		schedule = func(depth int) {
			nextID++
			id := nextID
			d := delay()
			at := s.Now().Add(d)
			h := &handle{id: id}
			switch rng.Intn(3) {
			case 0:
				h.t = s.After(d, func() { fire(h.id, depth) })
			case 1:
				// After clamps instants in the past to now.
				when := d
				if rng.Intn(4) == 0 {
					when, at = -time.Second, s.Now()
				}
				h.t = s.After(when, func() { fire(h.id, depth) })
			default:
				s.scheduleDelivery(d, n, "src", n.Node("dst"), wire.Heartbeat{Nonce: id})
			}
			if h.t != nil {
				timers = append(timers, h)
			}
			model = append(model, pending{at, id})
		}
		step := func() {
			before, want := fired, len(model) > 0
			if got := s.Step(); got != want || fired-before > 1 {
				t.Fatalf("seed %d: Step = %v after %d events, %d were pending", seed, got, fired-before, len(model))
			}
		}
		recount := func(op int) {
			dead := 0
			for i, e := range s.queue {
				if e.pos != i+1 {
					t.Fatalf("seed %d op %d: queue[%d] records position %d", seed, op, i, e.pos-1)
				}
				if e.stopped {
					dead++
				}
			}
			if dead != s.stopped {
				t.Fatalf("seed %d op %d: %d dead entries queued, the scheduler counts %d", seed, op, dead, s.stopped)
			}
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 40:
				schedule(0)
			case r < 72:
				step()
			case r < 82:
				// Re-arm a timer in whatever state it is in: it reports
				// whether it was pending and fires as a new event scheduled
				// now.
				if len(timers) == 0 {
					break
				}
				h := timers[rng.Intn(len(timers))]
				switch e := (*event)(h.t); {
				case e.pos > 0 && !e.stopped:
					resets[0]++
				case e.pos > 0:
					resets[1]++
				case e.stopped:
					resets[2]++
				default:
					resets[3]++
				}
				d := delay()
				was := remove(h.id)
				nextID++
				h.id = nextID
				if got := h.t.Reset(d); got != was {
					t.Fatalf("seed %d: Reset = %v, the model had it pending = %v", seed, got, was)
				}
				model = append(model, pending{s.Now().Add(d), h.id})
			case r < 90:
				// A burst of cancellations: once more than half the queue is
				// dead the scheduler compacts.
				for _, h := range timers {
					if rng.Intn(4) != 0 && h.t.Stop() != remove(h.id) {
						t.Fatalf("seed %d: Stop(%d) disagrees with the model", seed, h.id)
					}
				}
			case r < 92:
				s.DiscardPending()
				model = model[:0]
				for _, h := range timers {
					if h.t.Stop() {
						t.Fatalf("seed %d: Stop(%d) succeeded after DiscardPending", seed, h.id)
					}
				}
			default:
				// RunUntil leaves nothing due by the bound and runs nothing
				// past it: an event past the bound would have moved the
				// clock beyond it, and the clock never moves back.
				bound := s.Now().Add(delay())
				s.RunUntil(bound)
				for _, p := range model {
					if !p.at.After(bound) {
						t.Fatalf("seed %d: RunUntil(%v) left event %d at %v", seed, bound, p.id, p.at)
					}
				}
				if !s.Now().Equal(bound) {
					t.Fatalf("seed %d: RunUntil left the clock at %v, want %v", seed, s.Now(), bound)
				}
			}
			recount(op)
		}
		for len(model) > 0 {
			step()
		}
		if s.Step() || s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after the model drained", seed, s.Pending())
		}
	}
	for state, n := range resets {
		if n == 0 {
			t.Errorf("no timer in state %d was re-armed (counts %v)", state, resets)
		}
	}
}
