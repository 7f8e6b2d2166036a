package simnet

import (
	"testing"
	"time"

	"wanac/internal/wire"
)

func TestCapacityServesAtFixedRate(t *testing.T) {
	sched := NewScheduler()
	net := New(sched, Config{Latency: Fixed{D: 0}})
	var handled []time.Time
	net.Attach("n", HandlerFunc(func(from wire.NodeID, msg wire.Message) {
		handled = append(handled, sched.Now())
	}))
	net.Attach("src", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	net.SetCapacity("n", Capacity{ServiceTime: 10 * time.Millisecond})

	start := sched.Now()
	for i := 0; i < 3; i++ {
		net.Send("src", "n", wire.Query{App: "a", Nonce: uint64(i + 1)})
	}
	sched.Run(0)
	if len(handled) != 3 {
		t.Fatalf("handled = %d, want 3", len(handled))
	}
	// One server, 10ms each: completions at 10, 20, 30ms.
	for i, at := range handled {
		want := start.Add(time.Duration(i+1) * 10 * time.Millisecond)
		if !at.Equal(want) {
			t.Errorf("message %d served at %v, want %v", i, at.Sub(start), want.Sub(start))
		}
	}
	st, ok := net.CapacityStats("n")
	if !ok {
		t.Fatal("no capacity stats")
	}
	if st.Served != 3 || st.Enqueued[wire.LaneBulk] != 3 || st.Dropped != [2]uint64{} {
		t.Errorf("stats = %+v", st)
	}
}

func TestCapacityHighLaneJumpsQueue(t *testing.T) {
	sched := NewScheduler()
	net := New(sched, Config{Latency: Fixed{D: 0}})
	var order []string
	net.Attach("n", HandlerFunc(func(from wire.NodeID, msg wire.Message) {
		order = append(order, msg.Kind())
	}))
	net.Attach("src", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	net.SetCapacity("n", Capacity{ServiceTime: time.Millisecond})

	// Three bulk queries, then a revocation notice arriving last. The first
	// query is already in service; the revocation must overtake the two
	// still waiting.
	for i := 0; i < 3; i++ {
		net.Send("src", "n", wire.Query{App: "a", Nonce: uint64(i + 1)})
	}
	net.Send("src", "n", wire.RevokeNotice{App: "a", User: "u", Right: wire.RightUse})
	sched.Run(0)

	want := []string{"query", "revoke-notice", "query", "query"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCapacityLaneBoundsAndConservation(t *testing.T) {
	sched := NewScheduler()
	net := New(sched, Config{Latency: Fixed{D: 0}})
	served := 0
	net.Attach("n", HandlerFunc(func(wire.NodeID, wire.Message) { served++ }))
	net.Attach("src", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	net.SetCapacity("n", Capacity{ServiceTime: time.Millisecond, QueueDepth: 2, LaneDepth: 3})

	// 6 bulk arrivals at one instant: 2 queue, 1 in service (the server
	// takes the first immediately), 3 dropped. 5 high arrivals: 3 queue,
	// 2 dropped (the server is busy with the first query).
	for i := 0; i < 6; i++ {
		net.Send("src", "n", wire.Query{App: "a", Nonce: uint64(i + 1)})
	}
	for i := 0; i < 5; i++ {
		net.Send("src", "n", wire.RevokeNotice{App: "a", User: wire.UserID(string(rune('a' + i))), Right: wire.RightUse})
	}
	sched.RunFor(0) // deliver the burst; service completions are still pending
	st, _ := net.CapacityStats("n")
	if st.Depth[wire.LaneBulk] != 2 || st.Depth[wire.LaneHigh] != 3 || !st.Busy {
		t.Fatalf("mid-flight stats = %+v", st)
	}
	if st.Dropped[wire.LaneBulk] != 3 || st.Dropped[wire.LaneHigh] != 2 {
		t.Fatalf("drops = %+v", st.Dropped)
	}

	sched.Run(0)
	st, _ = net.CapacityStats("n")
	if st.Served != 6 || served != 6 {
		t.Errorf("served = %d/%d, want 6", st.Served, served)
	}
	// Conservation per lane: enqueued == served-from-lane + dropped + depth.
	var fromLanes uint64 = st.Enqueued[wire.LaneBulk] + st.Enqueued[wire.LaneHigh]
	if fromLanes != st.Served || st.Depth != [2]int{} {
		t.Errorf("conservation violated: %+v", st)
	}
	nst := net.Stats()
	if nst.Delivered != 6 || nst.Dropped != 5 {
		t.Errorf("network counters = delivered %d dropped %d, want 6/5", nst.Delivered, nst.Dropped)
	}
}

// TestCapacityServeAllocationBudget: a delivery to a capacity-modelled node
// waits in its lane, is served by a pooled completion event and reaches the
// handler without allocating. Budget: 0.
func TestCapacityServeAllocationBudget(t *testing.T) {
	sched := NewScheduler()
	n := New(sched, Config{})
	served := 0
	n.Attach("a", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	n.Attach("b", HandlerFunc(func(wire.NodeID, wire.Message) { served++ }))
	n.SetCapacity("b", Capacity{ServiceTime: time.Millisecond})
	var msg wire.Message = wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 7}
	// Two at a time, so the second waits for the first's service. Warm the
	// event pool, the lanes and the heap's backing array first.
	burst := func() {
		n.Send("a", "b", msg)
		n.Send("a", "b", msg)
		sched.Run(0)
	}
	for i := 0; i < 32; i++ {
		burst()
	}
	served = 0
	if allocs := testing.AllocsPerRun(200, burst); allocs > 0 {
		t.Errorf("capacity-served delivery allocates %.1f objects/op, budget is 0", allocs)
	}
	if served < 400 {
		t.Errorf("served %d messages, want >= 400", served)
	}
}

func TestCapacityCrashFlushesBacklog(t *testing.T) {
	sched := NewScheduler()
	net := New(sched, Config{Latency: Fixed{D: 0}})
	served := 0
	net.Attach("n", HandlerFunc(func(wire.NodeID, wire.Message) { served++ }))
	net.Attach("src", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	net.SetCapacity("n", Capacity{ServiceTime: 10 * time.Millisecond})

	for i := 0; i < 4; i++ {
		net.Send("src", "n", wire.Query{App: "a", Nonce: uint64(i + 1)})
	}
	sched.RunFor(15 * time.Millisecond) // one served, one mid-service
	net.Crash("n")
	sched.Run(0)
	if served != 1 {
		t.Fatalf("served = %d, want 1 (crash lost the backlog)", served)
	}
	st, _ := net.CapacityStats("n")
	if st.Depth != [2]int{} || st.Busy {
		t.Errorf("backlog not flushed: %+v", st)
	}

	// Recover and reset: the node serves again.
	net.Recover("n")
	net.ResetCapacities()
	net.Send("src", "n", wire.Query{App: "a", Nonce: 99})
	sched.Run(0)
	if served != 2 {
		t.Errorf("served after recover = %d, want 2", served)
	}
	st, _ = net.CapacityStats("n")
	if st.Served != 1 || st.Enqueued[wire.LaneBulk] != 1 {
		t.Errorf("stats not reset: %+v", st)
	}
}
