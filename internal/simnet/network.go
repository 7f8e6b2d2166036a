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

// LentHandler is an optional upgrade of a Handler, detected once by Attach:
// it is handed each message sent by Lend as a pointer to the network's own
// copy, which the network reuses once the call returns, so the handler
// copies what it keeps. A handler without it is handed the message boxed.
type LentHandler interface {
	HandleLent(from wire.NodeID, msg wire.Message)
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
	// LinkLatency, when non-nil, samples delays per directed link from a
	// region RTT matrix instead of the uniform Latency model. Per-link
	// overrides installed with SetLinkLatency take precedence over both.
	LinkLatency *Matrix
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

// kindCount is one slot of the network's sent counts by kind.
type kindCount struct {
	name string
	sent uint64
}

// kindSlots is the number of message types kindSlot numbers.
const kindSlots = 20

// kindSlot numbers the message types wire defines, so a send is counted in
// an array slot instead of by hashing its kind's name; a pointer to a kind
// nodes lend (see held) counts with its value. -1 for any other type.
func kindSlot(msg wire.Message) int {
	switch msg.(type) {
	case wire.Query, *wire.Query:
		return 0
	case wire.Response, *wire.Response:
		return 1
	case wire.Busy, *wire.Busy:
		return 2
	case wire.RevokeNotice, *wire.RevokeNotice:
		return 3
	case wire.RevokeAck, *wire.RevokeAck:
		return 4
	case wire.Update, *wire.Update:
		return 5
	case wire.UpdateAck, *wire.UpdateAck:
		return 6
	case wire.SyncRequest:
		return 7
	case wire.SyncResponse:
		return 8
	case wire.Heartbeat:
		return 9
	case wire.HeartbeatAck:
		return 10
	case wire.Invoke:
		return 11
	case wire.InvokeReply:
		return 12
	case wire.AdminOp:
		return 13
	case wire.AdminReply:
		return 14
	case wire.ResolveRequest:
		return 15
	case wire.ResolveResponse:
		return 16
	case wire.Sealed:
		return 17
	case wire.Gossip:
		return 18
	case wire.Batch:
		return 19
	}
	return -1
}

// linkKey is a directed link between two nodes, by their Node.index.
type linkKey struct{ from, to int }

// Node is a network's handle on one node id, made the first time the network
// meets the id and the same for the network's life: a re-Attach updates it
// in place. A sender holding its handle, and a delivery carrying its
// destination's, look no name up.
type Node struct {
	net     *Network
	id      wire.NodeID
	index   int         // the order the network first met the id in
	class   int         // row and column in the LinkLatency matrix
	handler Handler     // nil until the id is attached
	lent    LentHandler // the handler's upgrade, nil where it has none
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
	nodes    map[wire.NodeID]*Node
	cut      map[linkKey]bool    // severed links (directional entries)
	linkLoss map[linkKey]float64 // per-link loss overrides
	// linkLatency holds per-directed-link latency overrides (gray failures:
	// slow-but-not-dead links, congestion bursts) installed at runtime.
	linkLatency map[linkKey]LatencyModel
	// counters holds every count but ByKind, which Stats builds from kinds
	// and otherKinds.
	counters   Counters
	kinds      [kindSlots]kindCount
	otherKinds map[string]uint64
	// held keeps the network's copies of lent messages for reuse.
	held held
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
		nodes:       make(map[wire.NodeID]*Node),
		cut:         make(map[linkKey]bool),
		linkLoss:    make(map[linkKey]float64),
		linkLatency: make(map[linkKey]LatencyModel),
	}
}

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Node returns id's handle, making it if the network has not met id yet.
func (n *Network) Node(id wire.NodeID) *Node {
	if nd, ok := n.nodes[id]; ok {
		return nd
	}
	nd := &Node{net: n, id: id, index: len(n.nodes)}
	if m := n.cfg.LinkLatency; m != nil {
		nd.class = m.class[id]
	}
	n.nodes[id] = nd
	return nd
}

// attached returns id's handle if a handler is attached under id, else nil.
func (n *Network) attached(id wire.NodeID) *Node {
	if nd := n.nodes[id]; nd != nil && nd.handler != nil {
		return nd
	}
	return nil
}

// Attach registers a handler under id, replacing any previous registration,
// its capacity model and a crashed flag.
func (n *Network) Attach(id wire.NodeID, h Handler) {
	nd := n.Node(id)
	nd.handler, nd.crashed, nd.cap = h, false, nil
	nd.lent, _ = h.(LentHandler)
}

// Crash marks a node failed: messages to it are dropped until Recover. The
// paper assumes crash (not Byzantine) failures for managers (§2.1).
func (n *Network) Crash(id wire.NodeID) {
	if nd := n.attached(id); nd != nil && !nd.crashed {
		nd.crashed = true
		n.observe(NetEvent{Type: "crash", A: id})
	}
}

// Recover clears the crashed flag. Node-level state reset (empty ACL cache,
// manager sync) is the node's own responsibility (§3.4).
func (n *Network) Recover(id wire.NodeID) {
	if nd := n.attached(id); nd != nil && nd.crashed {
		nd.crashed = false
		n.observe(NetEvent{Type: "recover", A: id})
	}
}

// link returns the directed link from → to.
func (n *Network) link(from, to wire.NodeID) linkKey {
	return linkKey{n.Node(from).index, n.Node(to).index}
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
	k := n.link(from, to)
	if n.cut[k] != up {
		return false
	}
	if up {
		delete(n.cut, k)
	} else {
		n.cut[k] = true
	}
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
	k := n.link(from, to)
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
	k := n.link(from, to)
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
func (n *Network) sampleLatency(from, to *Node) time.Duration {
	if m, ok := n.linkLatency[linkKey{from.index, to.index}]; ok {
		return m.Sample(n.rng)
	}
	if m := n.cfg.LinkLatency; m != nil {
		return m.model(from.class, to.class).Sample(n.rng)
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
					if a != b {
						n.SetLink(a, b, false)
					}
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
func (n *Network) PartitionOneWay(from, to []wire.NodeID) { n.setOneWays(from, to, false) }

// RestoreOneWay undoes PartitionOneWay for the same groups, restoring only
// the from→to direction of each link.
func (n *Network) RestoreOneWay(from, to []wire.NodeID) { n.setOneWays(from, to, true) }

func (n *Network) setOneWays(from, to []wire.NodeID, up bool) {
	for _, a := range from {
		for _, b := range to {
			if a != b {
				n.SetOneWay(a, b, up)
			}
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

// Send is Node(from).Send(to, msg).
func (n *Network) Send(from, to wire.NodeID, msg wire.Message) { n.Node(from).Send(to, msg) }

// Lend is Send for a message lent for the call: a pointer to a Query,
// Response, Busy, Update, UpdateAck, RevokeNotice or RevokeAck, which its
// sender may reuse once Lend returns. Send carries the network's copy of
// it (see held), so counts, faults and random draws are the same.
func (nd *Node) Lend(to wire.NodeID, msg wire.Message) {
	c := nd.net.held.take(msg)
	if c == nil {
		panic("simnet: Lend takes a pointer to a wire message")
	}
	nd.Send(to, c)
}

// Send transmits msg from the node to another with the configured latency,
// loss, and duplication. It never blocks; delivery happens via the
// scheduler. Sends from a crashed node are suppressed. A drop gives back
// the network's copy of a lent message, and a duplicate copies it again.
// The destination's handle is resolved here, so a message sent to an id
// that is attached only before its delivery still arrives.
func (nd *Node) Send(to wire.NodeID, msg wire.Message) {
	n := nd.net
	dst := n.Node(to)
	n.counters.Sent++
	n.count(msg)
	if !n.admit(nd, dst, msg) {
		n.counters.Dropped++
		n.held.give(msg)
		return
	}
	n.sched.scheduleDelivery(n.sampleLatency(nd, dst), n, nd.id, dst, msg)
	if n.cfg.Duplicate > 0 && n.rng.Float64() < n.cfg.Duplicate {
		n.counters.Duplicated++
		if c := n.held.take(msg); c != nil {
			msg = c
		}
		n.sched.scheduleDelivery(n.sampleLatency(nd, dst), n, nd.id, dst, msg)
	}
}

// admit reports whether a send survives the sender's crash, the Filter,
// the link and its loss draw.
func (n *Network) admit(from, to *Node, msg wire.Message) bool {
	if from.crashed {
		return false
	}
	if n.Filter != nil && !n.Filter(from.id, to.id, boxed(msg)) {
		return false
	}
	k := linkKey{from.index, to.index}
	if n.cut[k] {
		return false
	}
	loss := n.cfg.Loss
	if p, ok := n.linkLoss[k]; ok {
		loss = p
	}
	return loss <= 0 || n.rng.Float64() >= loss
}

// count adds msg to its kind's count: a numbered kind's slot, named by its
// first message, or else the map of kinds by name.
func (n *Network) count(msg wire.Message) {
	i := kindSlot(msg)
	if i < 0 {
		if n.otherKinds == nil {
			n.otherKinds = make(map[string]uint64)
		}
		n.otherKinds[msg.Kind()]++
		return
	}
	c := &n.kinds[i]
	if c.sent == 0 {
		c.name = msg.Kind()
	}
	c.sent++
}

// deliver hands a due message to its destination (called by the scheduler).
func (n *Network) deliver(from wire.NodeID, nd *Node, msg wire.Message) {
	if nd.handler == nil || nd.crashed {
		n.counters.Dropped++
		n.held.give(msg)
		return
	}
	if nd.cap != nil {
		// Finite-capacity node: the message queues behind the server and
		// counts as delivered only when its service completes.
		n.capEnqueue(nd.cap, from, msg)
		return
	}
	n.counters.Delivered++
	n.handle(nd, from, msg)
}

// handle hands msg to the node's handler, the network's copy of a lent
// message lent to its upgrade or boxed, and takes the copy back.
func (n *Network) handle(nd *Node, from wire.NodeID, msg wire.Message) {
	if nd.lent != nil && lent(msg) {
		nd.lent.HandleLent(from, msg)
	} else {
		nd.handler.HandleMessage(from, boxed(msg))
	}
	n.held.give(msg)
}

// Stats returns a copy of the counters.
func (n *Network) Stats() Counters {
	out := n.counters
	out.ByKind = make(map[string]uint64, len(n.kinds)+len(n.otherKinds))
	for _, c := range n.kinds {
		if c.sent > 0 {
			out.ByKind[c.name] = c.sent
		}
	}
	for k, v := range n.otherKinds {
		out.ByKind[k] = v
	}
	return out
}

// ResetStats zeroes the counters (used between experiment phases).
func (n *Network) ResetStats() {
	n.counters = Counters{}
	n.kinds = [kindSlots]kindCount{}
	n.otherKinds = nil
}

// String summarizes counters for logs.
func (c Counters) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d duplicated=%d",
		c.Sent, c.Delivered, c.Dropped, c.Duplicated)
}
