package netcore

import (
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"wanac/internal/wire"
)

// Sender is one transport-specific way to put frames on the wire: a TCP
// connection with a write deadline, or a UDP socket bound to a peer
// address. Writes may block (bounded by the transport's deadlines); both
// methods are only ever called from the peer's writer goroutine.
//
// WriteBatch writes several frames with as few syscalls as the transport
// allows (TCP: one writev under one deadline; UDP: payloads packed into
// shared datagrams) and returns how many frames were written in full. It
// may mutate the passed slice and its backing array — callers rebuild it
// per attempt. On error, frames[:n] are on the wire and frames[n:] are not
// (a trailing partially-written frame counts as not written; the failed
// connection is discarded, so the partial bytes die with it).
type Sender interface {
	WriteFrame(frame []byte) error
	WriteBatch(frames net.Buffers) (int, error)
	Close() error
}

// DialFunc establishes a Sender to a peer. It is called only from the
// peer's writer goroutine, never under a lock, so one peer's slow dial
// cannot delay any other peer's traffic. A nil DialFunc means the peer is
// reachable only through adopted inbound connections.
type DialFunc func() (Sender, error)

// queued is one outbound queue entry: a message the writer encodes — and
// coalesces with its queue neighbors — at flush time. size is its exact
// wire.Size, taken once by EnqueueMessage. lane is the priority class the
// entry was queued under, kept on the entry so the drained batch (which
// interleaves lanes, high first) can still account drops and deliveries to
// the right lane.
type queued struct {
	msg  wire.Message
	size int
	lane wire.Lane
}

// piece is one wire frame produced by a flush: an (off, n) range of the
// writer's encode buffer (offsets, not subslices, because the buffer may be
// reallocated by a later frame in the same flush). msgs is how many
// protocol messages the piece carries per lane, so a dropped piece counts
// every coalesced message exactly once in its own lane.
type piece struct {
	off, n int
	msgs   [2]int // indexed by wire.Lane
}

// total returns the piece's message count across both lanes.
func (pc piece) total() int { return pc.msgs[wire.LaneBulk] + pc.msgs[wire.LaneHigh] }

// laneQueue is one priority class's bounded drop-oldest queue; qhead indexes
// the oldest live entry (the prefix before it has been drained or dropped).
type laneQueue struct {
	q     []queued
	qhead int
}

// depth returns the number of live entries.
func (l *laneQueue) depth() int { return len(l.q) - l.qhead }

// Peer owns one remote node's outbound path: a bounded drop-oldest message
// queue per lane, a dedicated writer goroutine that drains them, and the
// reconnect state machine. EnqueueMessage never blocks; all encoding,
// dialing, backoff waiting, and socket writing happens on the writer
// goroutine.
type Peer struct {
	id  wire.NodeID
	cfg Config
	ctr *Counters

	// wake nudges the writer: new message, adopted sender, redirect, close.
	wake chan struct{}
	// done closes when the writer goroutine has exited.
	done chan struct{}

	// Writer-goroutine-owned scratch, reused across flushes so the steady
	// state allocates nothing: the drained batch, the shared encode buffer,
	// the per-flush frame list, the net.Buffers rebuilt per write attempt,
	// and the current coalescing run.
	batch  []queued
	fbuf   []byte
	pieces []piece
	bufs   net.Buffers
	mrun   []wire.Message

	mu sync.Mutex
	// lanes are the per-class outbound queues, indexed by wire.Lane. The
	// high lane (revocations, updates, admin, sync, heartbeats) is drained
	// before any bulk traffic and bounded separately (cfg.LaneDepth), so a
	// flood of checks can never starve the revocation machinery.
	lanes [2]laneQueue
	dial  DialFunc
	cur   Sender
	state State
	// everUp marks that the peer had a connection at least once, so the
	// next successful dial counts as a reconnect.
	everUp bool
	// backoff is the current (un-jittered) redial delay; backoffUntil gates
	// the next dial attempt.
	backoff      time.Duration
	backoffUntil time.Time
	closed       bool
	drainBy      time.Time
}

// newPeer creates a peer and starts its writer goroutine. cfg must already
// have defaults applied.
func newPeer(id wire.NodeID, cfg Config, ctr *Counters, dial DialFunc) *Peer {
	p := &Peer{
		id:    id,
		cfg:   cfg,
		ctr:   ctr,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		dial:  dial,
		state: StateConnecting,
	}
	go p.run()
	return p
}

// ID returns the peer's node id.
func (p *Peer) ID() wire.NodeID { return p.id }

// notify reports a health transition to the configured sink. Callers pass
// the state observed before and after a mutation and call it after
// releasing p.mu, so the sink can never deadlock against the transport.
func (p *Peer) notify(old, now State) {
	if old != now && p.cfg.StateSink != nil {
		p.cfg.StateSink(p.id, now)
	}
}

// EnqueueMessage queues an un-encoded message in its priority lane
// (wire.LaneOf), dropping the oldest entry of that lane when it is full. It
// never blocks. The message is sized here, once: one that cannot be encoded
// or would not fit cfg.Framing.Limit alone is dropped at once, counted in
// Drops but in no lane. The writer goroutine encodes the rest at flush
// time, coalescing a message with others drained in the same flush into a
// single wire.Batch frame — so the encode cost, the frame header, and the
// write syscall are all off the caller's goroutine and amortized across
// the batch.
func (p *Peer) EnqueueMessage(msg wire.Message) {
	f := p.cfg.Framing
	size, err := wire.Size(msg)
	if err != nil || FrameOverhead(f.From)+size > f.Limit {
		p.ctr.Drops.Add(1)
		return
	}
	lane := wire.LaneOf(msg)
	p.ctr.LaneEnqueued[lane].Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.dropLane(lane, 1)
		return
	}
	lq := &p.lanes[lane]
	limit := p.cfg.QueueDepth
	if lane == wire.LaneHigh {
		limit = p.cfg.LaneDepth
	}
	if lq.depth() >= limit {
		lq.q[lq.qhead] = queued{}
		lq.qhead++
		p.dropLane(lane, 1)
	}
	// Reclaim the drained prefix once it dominates the backing array.
	if lq.qhead > 32 && lq.qhead*2 >= len(lq.q) {
		n := copy(lq.q, lq.q[lq.qhead:])
		clear(lq.q[n:])
		lq.q = lq.q[:n]
		lq.qhead = 0
	}
	lq.q = append(lq.q, queued{msg: msg, size: size, lane: lane})
	p.mu.Unlock()
	p.nudge()
}

// dropLane counts n messages dropped from one lane, keeping the per-lane
// conservation invariant (delivered + dropped == enqueued) and the
// aggregate Drops counter in lockstep.
func (p *Peer) dropLane(lane wire.Lane, n uint64) {
	if n == 0 {
		return
	}
	p.ctr.LaneDrops[lane].Add(n)
	p.ctr.Drops.Add(n)
}

// Adopt hands the peer an inbound connection to use for replies. It is
// ignored when the peer is closed or already has a live sender (the caller
// keeps ownership in that case).
func (p *Peer) Adopt(s Sender) bool {
	p.mu.Lock()
	if p.closed || p.cur != nil {
		p.mu.Unlock()
		return false
	}
	old := p.state
	p.cur = s
	p.state = StateUp
	p.everUp = true
	p.backoff = 0
	p.backoffUntil = time.Time{}
	p.mu.Unlock()
	p.notify(old, StateUp)
	p.nudge()
	return true
}

// Discard drops s if it is the peer's current sender (a read loop saw the
// connection die, or a write failed) and closes it. The writer redials on
// the next frame.
func (p *Peer) Discard(s Sender) {
	p.mu.Lock()
	old := p.state
	if p.cur == s {
		p.cur = nil
		if p.state == StateUp {
			p.state = StateConnecting
		}
	}
	now := p.state
	p.mu.Unlock()
	p.notify(old, now)
	s.Close()
	p.nudge()
}

// SetDial installs or replaces the peer's dial function. When dropCurrent
// is set (the peer's address changed) any live connection is discarded so
// no further frame is written to the stale destination, and the backoff
// clock restarts for the new address.
func (p *Peer) SetDial(dial DialFunc, dropCurrent bool) {
	p.mu.Lock()
	old := p.state
	p.dial = dial
	var stale Sender
	if dropCurrent {
		stale = p.cur
		p.cur = nil
		if p.state == StateUp {
			p.state = StateConnecting
		}
	}
	p.backoff = 0
	p.backoffUntil = time.Time{}
	if p.state == StateBackoff {
		p.state = StateConnecting
	}
	now := p.state
	p.mu.Unlock()
	p.notify(old, now)
	if stale != nil {
		stale.Close()
	}
	p.nudge()
}

// ClearBackoff lets the writer dial immediately (a datagram transport
// learned a fresh address for the peer).
func (p *Peer) ClearBackoff() {
	p.mu.Lock()
	old := p.state
	p.backoff = 0
	p.backoffUntil = time.Time{}
	if p.state == StateBackoff {
		p.state = StateConnecting
	}
	now := p.state
	p.mu.Unlock()
	p.notify(old, now)
	p.nudge()
}

// beginClose stops accepting messages and lets the writer drain what is
// queued until deadline. Wait blocks until the writer has exited.
func (p *Peer) beginClose(deadline time.Time) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.drainBy = deadline
	}
	p.mu.Unlock()
	p.nudge()
}

// Wait blocks until the writer goroutine has exited.
func (p *Peer) Wait() { <-p.done }

// status reports the per-lane queue depths and health state for stats
// snapshots.
func (p *Peer) status() (depths [2]int, state State) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for ln := range p.lanes {
		depths[ln] = p.lanes[ln].depth()
	}
	return depths, p.state
}

// State returns the peer's current health state.
func (p *Peer) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// nudge wakes the writer goroutine without blocking.
func (p *Peer) nudge() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: drain every ready entry (respecting backoff
// and drain deadlines), flush them as one coalesced write (dialing as
// needed), repeat until closed.
func (p *Peer) run() {
	defer close(p.done)
	for {
		batch, ok := p.nextBatch()
		if !ok {
			break
		}
		p.flush(batch)
	}
	p.mu.Lock()
	var dropped [2]int
	for ln := range p.lanes {
		dropped[ln] = p.lanes[ln].depth()
		p.lanes[ln] = laneQueue{}
	}
	cur := p.cur
	p.cur = nil
	p.mu.Unlock()
	for ln, d := range dropped {
		p.dropLane(wire.Lane(ln), uint64(d))
	}
	if cur != nil {
		cur.Close()
	}
}

// nextBatch blocks until at least one entry is ready, then drains up to
// cfg.MaxBatch entries into the writer-owned batch slice under one lock
// acquisition — high lane first, so revocation/update traffic coalesces at
// the front of the flush and is written before any bulk entry. The drain is
// opportunistic — whatever is queued right now, never waiting for more — so
// batching adds no latency: an idle peer still sends a lone message
// immediately, and only under load (queue occupancy) do flushes grow. While
// the peer is in backoff with no live sender, queued entries wait
// (accumulating sends drop oldest per lane) until the backoff expires.
// Returns false when the peer is closed and the queues are drained or the
// drain deadline passed.
func (p *Peer) nextBatch() ([]queued, bool) {
	for {
		p.mu.Lock()
		now := time.Now()
		empty := p.lanes[wire.LaneBulk].depth() == 0 && p.lanes[wire.LaneHigh].depth() == 0
		if p.closed && (empty || now.After(p.drainBy)) {
			p.mu.Unlock()
			return nil, false
		}
		var wait time.Duration = -1
		if !empty {
			if p.cur != nil || p.state != StateBackoff || !now.Before(p.backoffUntil) {
				batch := p.batch[:0]
				room := p.cfg.MaxBatch
				for _, lane := range [2]wire.Lane{wire.LaneHigh, wire.LaneBulk} {
					lq := &p.lanes[lane]
					n := lq.depth()
					if n > room {
						n = room
					}
					if n == 0 {
						continue
					}
					batch = append(batch, lq.q[lq.qhead:lq.qhead+n]...)
					clear(lq.q[lq.qhead : lq.qhead+n])
					lq.qhead += n
					if lq.qhead == len(lq.q) {
						// Full drain: rewind so the array is reused from the
						// start instead of growing rightward forever.
						lq.q = lq.q[:0]
						lq.qhead = 0
					}
					room -= n
					if room == 0 {
						break
					}
				}
				p.batch = batch
				p.mu.Unlock()
				return p.batch, true
			}
			wait = p.backoffUntil.Sub(now)
		}
		if p.closed {
			if d := p.drainBy.Sub(now); wait < 0 || d < wait {
				wait = d
			}
		}
		p.mu.Unlock()
		if wait < 0 {
			<-p.wake
			continue
		}
		t := time.NewTimer(wait)
		select {
		case <-p.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// flush encodes the drained batch into frames and writes them all with one
// Sender call, establishing a connection if needed. A write failure
// discards the connection and retries the unwritten remainder once on a
// fresh one; what still cannot be delivered is dropped, counting each
// coalesced message exactly once (unreliable-network semantics — the
// protocol's retries provide liveness). Frames the failed attempt did
// write are never re-sent, so no frame is delivered twice on one
// connection.
func (p *Peer) flush(batch []queued) {
	pieces := p.encodeBatch(batch)
	if len(pieces) == 0 {
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		s := p.sender()
		if s == nil {
			break
		}
		var written int
		var err error
		if len(pieces) == 1 {
			if err = s.WriteFrame(p.pieceBytes(pieces[0])); err == nil {
				written = 1
			}
		} else {
			written, err = s.WriteBatch(p.buffers(pieces))
		}
		if written > 0 {
			var bytes uint64
			var delivered [2]uint64
			for _, pc := range pieces[:written] {
				bytes += uint64(pc.n)
				delivered[wire.LaneBulk] += uint64(pc.msgs[wire.LaneBulk])
				delivered[wire.LaneHigh] += uint64(pc.msgs[wire.LaneHigh])
			}
			p.ctr.BytesOut.Add(bytes)
			for ln, n := range delivered {
				if n > 0 {
					p.ctr.LaneDelivered[ln].Add(n)
				}
			}
			p.ctr.observeBatch(written)
			pieces = pieces[written:]
		}
		if err == nil {
			return
		}
		p.Discard(s)
		if len(pieces) == 0 {
			return
		}
	}
	var msgs [2]uint64
	for _, pc := range pieces {
		msgs[wire.LaneBulk] += uint64(pc.msgs[wire.LaneBulk])
		msgs[wire.LaneHigh] += uint64(pc.msgs[wire.LaneHigh])
	}
	for ln, n := range msgs {
		p.dropLane(wire.Lane(ln), n)
	}
}

// encodeBatch turns the drained entries into wire frames. The batch is
// partitioned, by the sizes taken at enqueue, into runs that fit
// cfg.Framing.Limit, and each run is encoded zero-copy into the writer's
// reusable buffer — one message becomes a plain frame, two or more a single
// wire.Batch frame.
func (p *Peer) encodeBatch(batch []queued) []piece {
	pieces := p.pieces[:0]
	fbuf := p.fbuf[:0]
	f := p.cfg.Framing
	hdr := FrameOverhead(f.From)
	for i := 0; i < len(batch); {
		// Collect the longest run of consecutive messages that fits one
		// frame; every message fits alone (EnqueueMessage checked). A
		// message that is already a wire.Batch travels alone — the codec
		// (correctly) refuses nested batches. Runs may span the high/bulk
		// boundary: priority was already applied by the drain order, so
		// coalescing across it only saves a frame header.
		run := p.runScratch()
		var runLanes [2]int
		sum := 0
		for i < len(batch) {
			ent := batch[i]
			_, isBatch := ent.msg.(wire.Batch)
			if len(run) > 0 && (isBatch || hdr+1+uvarintLen(uint64(len(run)+1))+sum+ent.size > f.Limit) {
				break
			}
			run = append(run, ent.msg)
			runLanes[ent.lane]++
			sum += ent.size
			i++
			if isBatch {
				break
			}
		}
		p.mrun = run
		start := len(fbuf)
		var err error
		if fbuf, err = appendFrame(fbuf, f.From, run, f.Stream); err != nil {
			// wire.Size accepted every message in the run, so the codec
			// cannot refuse one; drop the run rather than write it.
			for ln, n := range runLanes {
				p.dropLane(wire.Lane(ln), uint64(n))
			}
			continue
		}
		pieces = append(pieces, piece{off: start, n: len(fbuf) - start, msgs: runLanes})
	}
	p.fbuf = fbuf
	p.pieces = pieces
	return pieces
}

// runScratch returns the reusable coalescing-run slice, emptied.
func (p *Peer) runScratch() []wire.Message {
	clear(p.mrun)
	return p.mrun[:0]
}

// pieceBytes materializes a piece's frame bytes. Valid only until the next
// encodeBatch call reuses the buffer.
func (p *Peer) pieceBytes(pc piece) []byte { return p.fbuf[pc.off : pc.off+pc.n] }

// buffers rebuilds the net.Buffers for a write attempt. Rebuilt fresh each
// time because Sender.WriteBatch consumes and mutates the slice it is
// given.
func (p *Peer) buffers(pieces []piece) net.Buffers {
	bufs := p.bufs[:0]
	for _, pc := range pieces {
		bufs = append(bufs, p.pieceBytes(pc))
	}
	p.bufs = bufs
	return bufs
}

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// sender returns the current sender, dialing one if necessary. On dial
// failure it arms the jittered exponential backoff and returns nil.
func (p *Peer) sender() Sender {
	p.mu.Lock()
	if s := p.cur; s != nil {
		p.mu.Unlock()
		return s
	}
	dial := p.dial
	if dial == nil {
		p.mu.Unlock()
		return nil
	}
	old := p.state
	p.state = StateConnecting
	p.mu.Unlock()
	p.notify(old, StateConnecting)

	p.ctr.Dials.Add(1)
	s, err := dial()

	p.mu.Lock()
	if err != nil {
		p.ctr.DialFailures.Add(1)
		if p.backoff == 0 {
			p.backoff = p.cfg.BackoffMin
		} else if p.backoff *= 2; p.backoff > p.cfg.BackoffMax {
			p.backoff = p.cfg.BackoffMax
		}
		// Jitter within [d/2, d] so a fleet of hosts does not redial a
		// restarted manager in lockstep.
		d := p.backoff/2 + rand.N(p.backoff/2+1)
		p.backoffUntil = time.Now().Add(d)
		p.state = StateBackoff
		p.mu.Unlock()
		p.notify(StateConnecting, StateBackoff)
		return nil
	}
	if p.cur != nil {
		// An inbound connection was adopted while we dialed; prefer it.
		existing := p.cur
		p.mu.Unlock()
		s.Close()
		return existing
	}
	if p.closed && time.Now().After(p.drainBy) {
		p.mu.Unlock()
		s.Close()
		return nil
	}
	p.cur = s
	p.state = StateUp
	if p.everUp {
		p.ctr.Reconnects.Add(1)
	}
	p.everUp = true
	p.backoff = 0
	p.backoffUntil = time.Time{}
	p.mu.Unlock()
	p.notify(StateConnecting, StateUp)
	return s
}
