// Package netcore is the shared production transport core under the live
// transports (internal/tcpnet, internal/udpnet). It owns everything the two
// transports used to duplicate or lack:
//
//   - per-peer bounded outbound queues drained by dedicated writer
//     goroutines, so a protocol-side Send never blocks, dials, or waits on a
//     slow peer's socket (overflow drops the oldest message and counts it);
//   - automatic reconnect with exponential backoff plus jitter and a
//     per-peer health state machine (connecting / up / backoff);
//   - shared frame encoding/decoding with the frame-size bound enforced on
//     both directions;
//   - graceful close that drains queues up to a deadline;
//   - a TransportStats snapshot (sends, drops, dials, dial failures,
//     reconnects, bytes in/out, queue depth, peer health) in the same style
//     as core.HostStats/ManagerStats.
//
// The transports stay thin: they own their sockets (listeners, read loops,
// address books) and hand netcore a DialFunc per peer; netcore owns the
// outbound path.
package netcore

import (
	"net"
	"sync/atomic"
	"time"

	"wanac/internal/wire"
)

// Handler receives messages from the network. Both live transports dispatch
// inbound traffic through this interface (it has the same shape as the
// simulator's handler, so protocol nodes plug into either unchanged).
//
// A Response's User is lent: it is a view of the frame it was decoded from,
// valid only until HandleMessage returns, after which the transport reads
// its next frame into the same bytes. A handler may compare it; to keep it,
// it copies it (strings.Clone). Every other field of every message is the
// handler's to keep.
type Handler interface {
	HandleMessage(from wire.NodeID, msg wire.Message)
}

// DefaultMaxFrame bounds frame size in both directions (1 MiB) so a
// misbehaving peer cannot exhaust memory and a buggy caller cannot wedge a
// connection with an unbounded write.
const DefaultMaxFrame = 1 << 20

// DefaultMaxBatch bounds how many queued messages one writer flush
// coalesces. 64 keeps a flush's wire.Batch frame small relative to MaxFrame
// while amortizing the per-wakeup lock, deadline, and syscall across enough
// messages to matter under load.
const DefaultMaxBatch = 64

// Framing tells the peer writer how to build frames: messages enqueued
// un-encoded (Peer.EnqueueMessage) are sized against Limit at once and
// batched into wire.Batch frames at flush time, encoded directly into the
// writer's reusable buffer. A transport sets Framing on its Config before
// NewGroup, which requires it.
type Framing struct {
	// From is the local node id stamped on every outbound frame.
	From wire.NodeID
	// Stream prefixes each frame with a big-endian u32 payload length
	// (tcpnet); false means raw datagram payloads (udpnet).
	Stream bool
	// Limit bounds one frame's payload. For datagram transports this is
	// min(MaxFrame, MTU).
	Limit int
}

// Config tunes a transport's outbound path. The zero value is usable:
// withDefaults fills every field a deployment does not set.
type Config struct {
	// QueueDepth bounds each peer's outbound queue. When the queue is full
	// the oldest message is dropped (and counted) — under backpressure the
	// freshest protocol traffic is the most useful, since the protocol's own
	// retry machinery regenerates anything older.
	QueueDepth int
	// LaneDepth bounds each peer's high-priority outbound lane (revocations,
	// updates, admin, sync, heartbeats — see wire.LaneOf). It is sized
	// separately from QueueDepth so a bulk query flood can never evict
	// control traffic: each lane overflows only into itself. Zero defaults
	// to QueueDepth.
	LaneDepth int
	// DialTimeout bounds one connection attempt.
	DialTimeout time.Duration
	// BackoffMin and BackoffMax bound the exponential redial backoff. The
	// actual wait is jittered within [d/2, d] so a restarted manager is not
	// hit by every host at the same instant.
	BackoffMin, BackoffMax time.Duration
	// WriteTimeout bounds one frame write on a stream connection.
	WriteTimeout time.Duration
	// ReadIdleTimeout, when positive, closes stream connections that deliver
	// no frame for this long (the protocol's heartbeats and retries keep
	// healthy links chatty). Zero disables the idle check.
	ReadIdleTimeout time.Duration
	// DrainTimeout bounds how long Close keeps draining queued messages
	// before dropping the remainder.
	DrainTimeout time.Duration
	// MaxFrame bounds frame size in both directions.
	MaxFrame int
	// MaxBatch bounds how many queued messages one writer flush coalesces
	// (and therefore how many sub-messages one wire.Batch frame carries).
	MaxBatch int
	// Framing tells the writer goroutine how to size, encode and coalesce
	// messages; see the Framing type. NewGroup panics without it.
	Framing *Framing
	// StateSink, when set, is invoked on every actual peer health
	// transition (connecting/up/backoff) — never on no-op calls — outside
	// any transport lock. The flight recorder subscribes here so transport
	// flaps appear on failure timelines. The callback must be fast and must
	// not call back into the transport.
	StateSink func(peer wire.NodeID, state State)
	// Dialer opens raw connections for stream transports. Tests inject
	// blocking or failing dialers here; nil uses net.DialTimeout.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
}

// withDefaults returns cfg with unset fields filled in.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.LaneDepth <= 0 {
		c.LaneDepth = c.QueueDepth
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Dialer == nil {
		c.Dialer = net.DialTimeout
	}
	return c
}

// Option adjusts a Config. The facade (wanac.Listen) and the transports'
// ListenConfig constructors accept options so deployments tune the
// transport without reaching into internal packages.
type Option func(*Config)

// WithQueueDepth bounds each peer's outbound queue.
func WithQueueDepth(n int) Option { return func(c *Config) { c.QueueDepth = n } }

// WithLaneDepth bounds each peer's high-priority outbound lane separately
// from the bulk queue, so control traffic survives bulk floods.
func WithLaneDepth(n int) Option { return func(c *Config) { c.LaneDepth = n } }

// WithBackoff bounds the exponential redial backoff.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Config) { c.BackoffMin, c.BackoffMax = min, max }
}

// WithDialTimeout bounds one connection attempt.
func WithDialTimeout(d time.Duration) Option { return func(c *Config) { c.DialTimeout = d } }

// WithMaxBatch bounds how many queued messages one writer flush coalesces
// into a single wire write. 1 disables coalescing.
func WithMaxBatch(n int) Option { return func(c *Config) { c.MaxBatch = n } }

// WithStateSink invokes fn on every peer health transition.
func WithStateSink(fn func(peer wire.NodeID, state State)) Option {
	return func(c *Config) { c.StateSink = fn }
}

// BuildConfig applies opts to a default Config.
func BuildConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c.withDefaults()
}

// State is a peer's connection health.
type State int32

// The health state machine: a peer starts Connecting, moves to Up when a
// connection is established (dialed or adopted from an inbound accept), and
// to Backoff after a failed dial until the jittered backoff expires.
const (
	StateConnecting State = iota
	StateUp
	StateBackoff
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateUp:
		return "up"
	case StateBackoff:
		return "backoff"
	default:
		return "unknown"
	}
}

// Counters are the transport's monotonic event counts, maintained with
// atomics so read loops, writer goroutines, and Stats snapshots never
// contend.
type Counters struct {
	// Sends counts Send calls (whether or not the message was ultimately
	// delivered).
	Sends atomic.Uint64
	// Drops counts messages dropped anywhere on the outbound path: unknown
	// peer, unencodable or oversized, queue overflow, undeliverable after
	// dial failure, or discarded by Close's drain deadline.
	Drops atomic.Uint64
	// LaneEnqueued, LaneDelivered, and LaneDrops account every queued entry
	// per priority lane (indexed by wire.Lane). The writer maintains the
	// conservation invariant per lane:
	//
	//	LaneDelivered + LaneDrops == LaneEnqueued (once quiesced)
	//
	// LaneDrops sums to Drops minus unknown-peer, unencodable and oversized
	// drops, which are counted before a message is queued in a lane.
	LaneEnqueued, LaneDelivered, LaneDrops [2]atomic.Uint64
	// Dials counts connection attempts.
	Dials atomic.Uint64
	// DialFailures counts connection attempts that failed.
	DialFailures atomic.Uint64
	// Reconnects counts successful dials that re-established a previously
	// up peer.
	Reconnects atomic.Uint64
	// BytesIn and BytesOut count frame bytes crossing the wire.
	BytesIn, BytesOut atomic.Uint64
	// BatchesOut counts coalesced writer flushes (each one wire write);
	// BatchFramesSum the total frames those flushes carried, so the mean
	// frames-per-flush is BatchFramesSum/BatchesOut.
	BatchesOut, BatchFramesSum atomic.Uint64
	// batchFrames are per-bucket counts of frames per flush (bounds
	// BatchFrameBounds, last slot is overflow), feeding the
	// netcore_batch_frames histogram.
	batchFrames [len(BatchFrameBounds) + 1]atomic.Uint64
}

// BatchFrameBounds are the upper bounds of the frames-per-flush histogram
// buckets exported as netcore_batch_frames.
var BatchFrameBounds = [8]float64{1, 2, 4, 8, 16, 32, 64, 128}

// observeBatch records one writer flush that put frames frames on the wire
// with a single write.
func (c *Counters) observeBatch(frames int) {
	c.BatchesOut.Add(1)
	c.BatchFramesSum.Add(uint64(frames))
	i := 0
	for i < len(BatchFrameBounds) && float64(frames) > BatchFrameBounds[i] {
		i++
	}
	c.batchFrames[i].Add(1)
}

// TransportStats is a point-in-time snapshot of a transport's activity,
// mirroring the core.HostStats/ManagerStats style.
type TransportStats struct {
	// Sends counts Send calls.
	Sends uint64 `json:"sends"`
	// Drops counts messages dropped on the outbound path (unknown peer,
	// unencodable or oversized, overflow, dial failure, drain deadline).
	Drops uint64 `json:"drops"`
	// Dials counts connection attempts; DialFailures the failed ones.
	Dials        uint64 `json:"dials"`
	DialFailures uint64 `json:"dial_failures"`
	// Reconnects counts re-established connections to previously up peers.
	Reconnects uint64 `json:"reconnects"`
	// BytesIn and BytesOut count frame bytes received and written.
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	// BatchesOut counts coalesced writer flushes (one wire write each);
	// BatchFramesSum the total frames those flushes carried.
	BatchesOut     uint64 `json:"batches_out"`
	BatchFramesSum uint64 `json:"batch_frames_sum"`
	// BatchFrames are cumulative per-bucket counts of frames per flush; the
	// bucket upper bounds are BatchFrameBounds plus a final overflow slot.
	BatchFrames []uint64 `json:"batch_frames"`
	// LaneEnqueued, LaneDelivered, and LaneDrops are per-priority-lane
	// accounting (index 0 = bulk, 1 = high; see wire.Lane). Once a peer
	// quiesces, delivered+drops == enqueued holds per lane.
	LaneEnqueued  [2]uint64 `json:"lane_enqueued"`
	LaneDelivered [2]uint64 `json:"lane_delivered"`
	LaneDrops     [2]uint64 `json:"lane_drops"`
	// QueueDepth is the current total of messages queued across peers.
	QueueDepth int `json:"queue_depth"`
	// LaneDepths is the current per-lane split of QueueDepth.
	LaneDepths [2]int `json:"lane_depths"`
	// PeersUp, PeersConnecting, and PeersBackoff count peers by health
	// state.
	PeersUp         int `json:"peers_up"`
	PeersConnecting int `json:"peers_connecting"`
	PeersBackoff    int `json:"peers_backoff"`
	// Peers maps each peer id to its current health state name
	// ("connecting", "up", "backoff"), so operators can see which peer is
	// flapping, not just how many. Nil when the transport has no peers.
	Peers map[string]string `json:"peers,omitempty"`
}

// snapshot loads the counter half of a TransportStats.
func (c *Counters) snapshot() TransportStats {
	frames := make([]uint64, len(c.batchFrames))
	for i := range c.batchFrames {
		frames[i] = c.batchFrames[i].Load()
	}
	var laneEnq, laneDel, laneDrop [2]uint64
	for ln := range laneEnq {
		laneEnq[ln] = c.LaneEnqueued[ln].Load()
		laneDel[ln] = c.LaneDelivered[ln].Load()
		laneDrop[ln] = c.LaneDrops[ln].Load()
	}
	return TransportStats{
		Sends:          c.Sends.Load(),
		Drops:          c.Drops.Load(),
		LaneEnqueued:   laneEnq,
		LaneDelivered:  laneDel,
		LaneDrops:      laneDrop,
		Dials:          c.Dials.Load(),
		DialFailures:   c.DialFailures.Load(),
		Reconnects:     c.Reconnects.Load(),
		BytesIn:        c.BytesIn.Load(),
		BytesOut:       c.BytesOut.Load(),
		BatchesOut:     c.BatchesOut.Load(),
		BatchFramesSum: c.BatchFramesSum.Load(),
		BatchFrames:    frames,
	}
}
