package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"wanac/internal/wire"
)

// Handler receives messages delivered by the network. Protocol nodes
// implement Handler; the network invokes it from the scheduler goroutine.
type Handler interface {
	HandleMessage(from wire.NodeID, msg wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from wire.NodeID, msg wire.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from wire.NodeID, msg wire.Message) { f(from, msg) }

// Config parameterizes the network's default behaviour. Per-link overrides
// are applied through Network methods after construction.
type Config struct {
	// Latency is the default one-way delay model. Nil means Fixed(10ms).
	Latency LatencyModel
	// LinkLatency, when non-nil, samples delays per directed link (e.g. a
	// region RTT matrix, see Matrix) instead of the uniform Latency model.
	// Per-link overrides installed with SetLinkLatency take precedence over
	// both.
	LinkLatency LinkLatencyModel
	// Loss is the default per-message drop probability in [0,1].
	Loss float64
	// Duplicate is the probability a delivered message is delivered twice,
	// modelling retransmission artifacts in an unreliable network.
	Duplicate float64
	// Seed makes every run reproducible. Zero means seed 1.
	Seed int64
}

// Counters aggregates network activity for the message-cost experiments
// (§4.1 overhead analysis).
type Counters struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64 // lost, link down, or destination crashed/absent
	Duplicated uint64
	ByKind     map[string]uint64 // sent, keyed by wire.Message.Kind()
}

type linkKey struct{ from, to wire.NodeID }

type node struct {
	handler Handler
	crashed bool
	// cap, when non-nil, is the node's finite-capacity model: deliveries
	// queue behind a fixed-rate server instead of being handled inline.
	cap *capacity
}

// Network is a simulated unreliable point-to-point + multicast network
// (§2.2 "Network" component). It is driven by a Scheduler and must only be
// used from the scheduler goroutine.
type Network struct {
	sched    *Scheduler
	rng      *rand.Rand
	cfg      Config
	nodes    map[wire.NodeID]*node
	cut      map[linkKey]bool    // severed links (directional entries)
	linkLoss map[linkKey]float64 // per-link loss overrides
	// linkLatency holds per-directed-link latency overrides (gray failures:
	// slow-but-not-dead links, congestion bursts) installed at runtime.
	linkLatency map[linkKey]LatencyModel
	counters    Counters
	// Filter, when non-nil, is consulted for every send; returning false
	// drops the message. Tests use it for targeted fault injection (e.g.
	// drop only Update messages between two managers).
	Filter func(from, to wire.NodeID, msg wire.Message) bool
	// Observer, when non-nil, is invoked for every topology change and
	// fault injection (link cut/restore, crash/recover, heal, scripted
	// annotations) — never on the per-message path. The flight recorder
	// subscribes here so partition injections appear on failure timelines.
	// Called from the scheduler goroutine.
	Observer func(ev NetEvent)
}

// NetEvent describes one injected fault or topology change.
type NetEvent struct {
	// Type is the stable event name: link-cut, link-restored, crash,
	// recover, heal, or annotation.
	Type string
	// A and B are the link endpoints for link events; A alone is set for
	// crash/recover.
	A, B wire.NodeID
	// Note carries free-form detail (annotation text).
	Note string
}

func (n *Network) observe(ev NetEvent) {
	if n.Observer != nil {
		n.Observer(ev)
	}
}

// Annotate reports a scripted, human-named injection (e.g. "split {m0} vs
// {m1,m2}") to the observer. It does not change the network.
func (n *Network) Annotate(note string) {
	n.observe(NetEvent{Type: "annotation", Note: note})
}

// New creates a network on the given scheduler.
func New(sched *Scheduler, cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = Fixed{D: 10 * time.Millisecond}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		sched:       sched,
		rng:         rand.New(rand.NewSource(seed)),
		cfg:         cfg,
		nodes:       make(map[wire.NodeID]*node),
		cut:         make(map[linkKey]bool),
		linkLoss:    make(map[linkKey]float64),
		linkLatency: make(map[linkKey]LatencyModel),
		counters:    newCounters(),
	}
}

func newCounters() Counters {
	return Counters{ByKind: make(map[string]uint64)}
}

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Attach registers a handler under id, replacing any previous registration
// and clearing a crashed flag.
func (n *Network) Attach(id wire.NodeID, h Handler) {
	n.nodes[id] = &node{handler: h}
}

// Crash marks a node failed: messages to it are dropped until Recover. The
// paper assumes crash (not Byzantine) failures for managers (§2.1).
func (n *Network) Crash(id wire.NodeID) {
	if nd, ok := n.nodes[id]; ok && !nd.crashed {
		nd.crashed = true
		n.observe(NetEvent{Type: "crash", A: id})
	}
}

// Recover clears the crashed flag. Node-level state reset (empty ACL cache,
// manager sync) is the node's own responsibility (§3.4).
func (n *Network) Recover(id wire.NodeID) {
	if nd, ok := n.nodes[id]; ok && nd.crashed {
		nd.crashed = false
		n.observe(NetEvent{Type: "recover", A: id})
	}
}

// SetLink cuts or restores both directions of the link between a and b.
func (n *Network) SetLink(a, b wire.NodeID, up bool) {
	changed := n.setOneWay(a, b, up)
	changed = n.setOneWay(b, a, up) || changed
	if changed {
		n.observe(NetEvent{Type: linkEventType(up), A: a, B: b})
	}
}

// SetOneWay cuts or restores a single direction, modelling asymmetric
// routing failures.
func (n *Network) SetOneWay(from, to wire.NodeID, up bool) {
	if n.setOneWay(from, to, up) {
		n.observe(NetEvent{Type: linkEventType(up), A: from, B: to, Note: "one-way"})
	}
}

// setOneWay applies the cut-set change and reports whether anything changed
// (so repeated Partition calls do not flood the observer).
func (n *Network) setOneWay(from, to wire.NodeID, up bool) bool {
	k := linkKey{from, to}
	if up {
		if !n.cut[k] {
			return false
		}
		delete(n.cut, k)
		return true
	}
	if n.cut[k] {
		return false
	}
	n.cut[k] = true
	return true
}

func linkEventType(up bool) string {
	if up {
		return "link-restored"
	}
	return "link-cut"
}

// SetLinkLoss overrides the drop probability for one direction of a link.
// Pass a negative value to remove the override.
func (n *Network) SetLinkLoss(from, to wire.NodeID, p float64) {
	k := linkKey{from, to}
	if p < 0 {
		delete(n.linkLoss, k)
		return
	}
	n.linkLoss[k] = p
}

// SetLinkLatency overrides the delay model for one direction of a link —
// the injection point for slow-but-not-dead links and congestion bursts.
// Pass nil to remove the override and fall back to the configured
// LinkLatency matrix or default model. Changes are reported to the
// observer so gray failures appear on flight-recorder timelines.
func (n *Network) SetLinkLatency(from, to wire.NodeID, m LatencyModel) {
	k := linkKey{from, to}
	if m == nil {
		if _, ok := n.linkLatency[k]; ok {
			delete(n.linkLatency, k)
			n.observe(NetEvent{Type: "link-latency-cleared", A: from, B: to})
		}
		return
	}
	_, had := n.linkLatency[k]
	n.linkLatency[k] = m
	if !had {
		n.observe(NetEvent{Type: "link-latency-set", A: from, B: to})
	}
}

// sampleLatency draws the one-way delay for a message on the directed link
// from → to: a runtime override if installed, else the configured per-link
// matrix, else the uniform default model.
func (n *Network) sampleLatency(from, to wire.NodeID) time.Duration {
	if m, ok := n.linkLatency[linkKey{from, to}]; ok {
		return m.Sample(n.rng)
	}
	if n.cfg.LinkLatency != nil {
		return n.cfg.LinkLatency.SampleLink(from, to, n.rng)
	}
	return n.cfg.Latency.Sample(n.rng)
}

// Partition severs every link between the given groups while leaving links
// within each group intact. Nodes not mentioned keep their current links.
// Repeated or overlapping Partition calls emit exactly one NetEvent per
// link that actually changed state: already-cut pairs are silent, and a
// node appearing in more than one group never severs (or reports) a
// self-link.
func (n *Network) Partition(groups ...[]wire.NodeID) {
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			for _, a := range groups[i] {
				for _, b := range groups[j] {
					if a == b {
						// Overlapping groups: a node is never partitioned
						// from itself.
						continue
					}
					n.SetLink(a, b, false)
				}
			}
		}
	}
}

// PartitionOneWay severs only the from→to direction of every link between
// the two groups: senders in from still hear the to side, but nothing they
// send arrives — the gray-failure shape of asymmetric routing loss. Like
// Partition, repeated calls emit one NetEvent per actually changed
// direction and self-links are skipped.
func (n *Network) PartitionOneWay(from, to []wire.NodeID) {
	for _, a := range from {
		for _, b := range to {
			if a == b {
				continue
			}
			n.SetOneWay(a, b, false)
		}
	}
}

// RestoreOneWay undoes PartitionOneWay for the same groups, restoring only
// the from→to direction of each link.
func (n *Network) RestoreOneWay(from, to []wire.NodeID) {
	for _, a := range from {
		for _, b := range to {
			if a == b {
				continue
			}
			n.SetOneWay(a, b, true)
		}
	}
}

// Heal restores every cut link.
func (n *Network) Heal() {
	if len(n.cut) > 0 {
		n.observe(NetEvent{Type: "heal"})
	}
	n.cut = make(map[linkKey]bool)
}

// Send transmits msg from one node to another with the configured latency,
// loss, and duplication. It never blocks; delivery happens via the
// scheduler. Sends from a crashed node are suppressed.
func (n *Network) Send(from, to wire.NodeID, msg wire.Message) {
	n.counters.Sent++
	n.counters.ByKind[msg.Kind()]++
	if nd, ok := n.nodes[from]; ok && nd.crashed {
		n.counters.Dropped++
		return
	}
	if n.Filter != nil && !n.Filter(from, to, msg) {
		n.counters.Dropped++
		return
	}
	if n.cut[linkKey{from, to}] {
		n.counters.Dropped++
		return
	}
	loss := n.cfg.Loss
	if p, ok := n.linkLoss[linkKey{from, to}]; ok {
		loss = p
	}
	if loss > 0 && n.rng.Float64() < loss {
		n.counters.Dropped++
		return
	}
	n.sched.scheduleDelivery(n.sampleLatency(from, to), n, from, to, msg)
	if n.cfg.Duplicate > 0 && n.rng.Float64() < n.cfg.Duplicate {
		n.counters.Duplicated++
		n.sched.scheduleDelivery(n.sampleLatency(from, to), n, from, to, msg)
	}
}

// deliver hands a due message to its destination (called by the scheduler).
func (n *Network) deliver(from, to wire.NodeID, msg wire.Message) {
	nd, ok := n.nodes[to]
	if !ok || nd.crashed {
		n.counters.Dropped++
		return
	}
	if nd.cap != nil {
		// Finite-capacity node: the message queues behind the server and
		// counts as delivered only when its service completes.
		n.capEnqueue(nd.cap, from, msg)
		return
	}
	n.counters.Delivered++
	nd.handler.HandleMessage(from, msg)
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Counters {
	out := n.counters
	out.ByKind = make(map[string]uint64, len(n.counters.ByKind))
	for k, v := range n.counters.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// ResetStats zeroes the counters (used between experiment phases).
func (n *Network) ResetStats() {
	n.counters = newCounters()
}

// String summarizes counters for logs.
func (c Counters) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d duplicated=%d",
		c.Sent, c.Delivered, c.Dropped, c.Duplicated)
}
