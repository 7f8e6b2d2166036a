package simnet

import (
	"time"

	"wanac/internal/wire"
)

// Capacity models a node's finite processing capacity: a single server with
// a fixed per-message service time fed by a bounded two-lane inbound queue
// (wire.LaneOf class, high drains first — the same discipline the live
// transport applies on the outbound side). Messages arriving while the
// server is busy wait in their lane; arrivals beyond a lane's bound are
// dropped, which is what turns a sustained overload into visible loss
// instead of an unbounded queue. The zero value (ServiceTime <= 0) means
// infinite capacity: deliveries are handled inline as before.
type Capacity struct {
	// ServiceTime is the processing time per inbound message. <= 0
	// disables the capacity model for the node.
	ServiceTime time.Duration
	// QueueDepth bounds the bulk lane (queries, responses, application
	// traffic). <= 0 means unbounded.
	QueueDepth int
	// LaneDepth bounds the high lane (revocations, updates, admin,
	// heartbeats). <= 0 inherits QueueDepth.
	LaneDepth int
	// FIFO disables lane classification: every message queues in the bulk
	// lane (bounded by QueueDepth) in strict arrival order. Baseline
	// comparisons use it to show what an unprioritized server does to
	// control traffic under a query flood.
	FIFO bool
}

// CapacityStats counts one node's capacity-model activity, indexed by
// wire.Lane. Enqueued[lane] == Served-from-lane + Dropped[lane] +
// Depth[lane] at any quiescent instant.
type CapacityStats struct {
	// Enqueued counts arrivals admitted to each lane's queue.
	Enqueued [2]uint64
	// Dropped counts arrivals rejected because the lane was full, plus
	// queued messages discarded when the node crashed.
	Dropped [2]uint64
	// Served counts messages whose service completed and reached the
	// handler.
	Served uint64
	// Depth is the current number of waiting messages per lane (excluding
	// the one in service).
	Depth [2]int
	// Busy reports whether the server is processing a message.
	Busy bool
}

// capMsg is one waiting inbound message.
type capMsg struct {
	from wire.NodeID
	msg  wire.Message
}

// capacity is the per-node server state. Lanes are simple slices with a
// head index, compacted when the drained prefix dominates.
type capacity struct {
	cfg Capacity
	// nd is the node the server was installed on.
	nd      *Node
	lanes   [2][]capMsg
	heads   [2]int
	busy    bool
	serving capMsg // the message in service while busy
	stats   CapacityStats
}

func (c *capacity) depth(lane wire.Lane) int { return len(c.lanes[lane]) - c.heads[lane] }

func (c *capacity) bound(lane wire.Lane) int {
	if lane == wire.LaneHigh && c.cfg.LaneDepth > 0 {
		return c.cfg.LaneDepth
	}
	return c.cfg.QueueDepth
}

// pop removes the next message to serve: high lane first.
func (c *capacity) pop() (capMsg, bool) {
	for _, lane := range [2]wire.Lane{wire.LaneHigh, wire.LaneBulk} {
		if c.depth(lane) == 0 {
			// Reset a fully drained lane so the backing array is reusable.
			c.lanes[lane] = c.lanes[lane][:0]
			c.heads[lane] = 0
			continue
		}
		m := c.lanes[lane][c.heads[lane]]
		c.lanes[lane][c.heads[lane]] = capMsg{}
		c.heads[lane]++
		if c.heads[lane]*2 > len(c.lanes[lane]) {
			n := copy(c.lanes[lane], c.lanes[lane][c.heads[lane]:])
			for i := n; i < len(c.lanes[lane]); i++ {
				c.lanes[lane][i] = capMsg{}
			}
			c.lanes[lane] = c.lanes[lane][:n]
			c.heads[lane] = 0
		}
		return m, true
	}
	return capMsg{}, false
}

// SetCapacity installs (or, with a zero/disabled Capacity, removes) the
// finite-capacity model for a node. Installing resets any previous
// capacity state and statistics. The node must already be attached.
func (n *Network) SetCapacity(id wire.NodeID, c Capacity) {
	nd := n.attached(id)
	if nd == nil {
		return
	}
	if c.ServiceTime <= 0 {
		nd.cap = nil
		return
	}
	nd.cap = &capacity{cfg: c, nd: nd}
}

// CapacityStats returns a snapshot of a node's capacity counters; ok is
// false when the node has no capacity model installed.
func (n *Network) CapacityStats(id wire.NodeID) (CapacityStats, bool) {
	nd := n.nodes[id]
	if nd == nil || nd.cap == nil {
		return CapacityStats{}, false
	}
	st := nd.cap.stats
	st.Depth[wire.LaneBulk] = nd.cap.depth(wire.LaneBulk)
	st.Depth[wire.LaneHigh] = nd.cap.depth(wire.LaneHigh)
	st.Busy = nd.cap.busy
	return st, true
}

// ResetCapacities clears every node's capacity queues, server state, and
// statistics while keeping the configured models. The experiment engine
// calls it between trials (alongside Scheduler.DiscardPending, which
// silently cancels in-flight service completions — without this reset a
// reused world's servers would stay busy forever).
func (n *Network) ResetCapacities() {
	for _, nd := range n.nodes {
		if cs := nd.cap; cs != nil {
			n.held.give(cs.serving.msg)
			n.giveQueued(cs, wire.LaneBulk)
			n.giveQueued(cs, wire.LaneHigh)
			nd.cap = &capacity{cfg: cs.cfg, nd: nd}
		}
	}
}

// giveQueued empties one of cs's lanes, giving back the messages it held.
func (n *Network) giveQueued(cs *capacity, lane wire.Lane) {
	for _, m := range cs.lanes[lane][cs.heads[lane]:] {
		n.held.give(m.msg)
	}
	clear(cs.lanes[lane])
	cs.lanes[lane] = cs.lanes[lane][:0]
	cs.heads[lane] = 0
}

// capEnqueue admits a delivered message into the node's inbound queue and
// kicks the server if idle. Called from deliver, so network latency, loss,
// and link state have already been applied.
func (n *Network) capEnqueue(cs *capacity, from wire.NodeID, msg wire.Message) {
	lane := wire.LaneOf(msg) // a lent copy takes its value's lane
	if cs.cfg.FIFO {
		lane = wire.LaneBulk
	}
	if b := cs.bound(lane); b > 0 && cs.depth(lane) >= b {
		cs.stats.Dropped[lane]++
		n.counters.Dropped++
		n.held.give(msg)
		return
	}
	cs.lanes[lane] = append(cs.lanes[lane], capMsg{from: from, msg: msg})
	cs.stats.Enqueued[lane]++
	if !cs.busy {
		n.capServe(cs)
	}
}

// capServe takes the next waiting message (high lane first) into service
// and schedules its completion, a pooled event the scheduler hands to
// served. At completion the message is handled and the next one starts, so
// the server processes one message per ServiceTime for as long as the queue
// is non-empty.
func (n *Network) capServe(cs *capacity) {
	m, ok := cs.pop()
	if !ok {
		return
	}
	cs.busy = true
	cs.serving = m
	e := n.sched.pooled(cs.cfg.ServiceTime)
	e.net, e.cs = n, cs
}

// served completes cs's service of the message it holds.
func (n *Network) served(cs *capacity) {
	m, nd := cs.serving, cs.nd
	cs.serving = capMsg{}
	cs.busy = false
	// The world may have moved on mid-service: the node crashed, was
	// re-attached, or its capacity model was reinstalled. The serving
	// message is lost; a crashed node's backlog is flushed too.
	if nd.cap != cs || nd.crashed {
		n.counters.Dropped++
		n.held.give(m.msg)
		if nd.cap == cs {
			for _, lane := range [2]wire.Lane{wire.LaneBulk, wire.LaneHigh} {
				cs.stats.Dropped[lane] += uint64(cs.depth(lane))
				n.counters.Dropped += uint64(cs.depth(lane))
				n.giveQueued(cs, lane)
			}
		}
		return
	}
	cs.stats.Served++
	n.counters.Delivered++
	n.handle(nd, m.from, m.msg)
	if cs.depth(wire.LaneBulk)+cs.depth(wire.LaneHigh) > 0 && !cs.busy {
		n.capServe(cs)
	}
}
