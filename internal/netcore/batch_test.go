package netcore

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// backoffConfig returns a config whose backoff is effectively infinite, so a
// peer parked by one failed dial holds its queue until the test releases it
// (Adopt, ClearBackoff, or SetDial) — the deterministic way to accumulate a
// multi-entry batch for one flush.
func backoffConfig(depth int) Config {
	return Config{
		QueueDepth: depth,
		BackoffMin: time.Minute,
		BackoffMax: time.Minute,
		Framing:    &Framing{From: "src", Stream: false, Limit: 8 << 10},
	}.withDefaults()
}

// parkPeer drives p into backoff by sacrificing one message to a failing
// dial, so everything enqueued afterwards accumulates in the queue.
func parkPeer(t *testing.T, p *Peer, ctr *Counters) {
	t.Helper()
	p.EnqueueMessage(wire.Heartbeat{Nonce: 9999})
	waitFor(t, func() bool { return ctr.Drops.Load() == 1 && peerState(p) == StateBackoff })
}

// TestFlushCoalescesIntoBatchFrame: messages drained in one flush travel as
// a single wire.Batch frame — one frame header, one write — and the batch
// counters record exactly one single-frame flush.
func TestFlushCoalescesIntoBatchFrame(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", backoffConfig(16), ctr,
		func() (Sender, error) { return nil, errors.New("refused") })
	defer func() { p.beginClose(time.Now()); p.Wait() }()
	parkPeer(t, p, ctr)

	for i := uint64(1); i <= 3; i++ {
		p.EnqueueMessage(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: i})
	}
	fs := &fakeSender{}
	if !p.Adopt(fs) {
		t.Fatal("adopt refused")
	}
	waitFor(t, func() bool { return fs.count() == 1 })

	fs.mu.Lock()
	raw := fs.frames[0]
	fs.mu.Unlock()
	from, msgs, err := new(FrameDecoder).Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if from != "src" {
		t.Errorf("frame sender = %q, want src", from)
	}
	if len(msgs) != 3 {
		t.Fatalf("coalesced frame carries %d messages, want 3", len(msgs))
	}
	for i, m := range msgs {
		if q, ok := m.(wire.Query); !ok || q.Nonce != uint64(i+1) {
			t.Errorf("batch[%d] = %#v, want Query nonce %d (order preserved)", i, m, i+1)
		}
	}
	if got := ctr.BatchesOut.Load(); got != 1 {
		t.Errorf("batches_out = %d, want 1", got)
	}
	if got := ctr.BatchFramesSum.Load(); got != 1 {
		t.Errorf("batch frames sum = %d, want 1 (three messages, one frame)", got)
	}
	if got := ctr.batchFrames[0].Load(); got != 1 {
		t.Errorf("le=1 bucket = %d, want 1", got)
	}
	if got := ctr.BytesOut.Load(); got != uint64(len(raw)) {
		t.Errorf("bytes_out = %d, want %d", got, len(raw))
	}
}

// TestFlushSplitsAtFrameLimit: when coalescing would exceed the frame limit,
// the flush partitions the run into individual frames and writes them with
// one WriteBatch call.
func TestFlushSplitsAtFrameLimit(t *testing.T) {
	msg := wire.Invoke{App: "a", User: "u", Payload: []byte("0123456789abcdef")}
	sz, err := wire.Size(msg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := backoffConfig(16)
	// Exactly one message fits per frame; two cannot share.
	cfg.Framing = &Framing{From: "src", Stream: false, Limit: FrameOverhead("src") + sz}

	ctr := &Counters{}
	p := newPeer("x", cfg, ctr, func() (Sender, error) { return nil, errors.New("refused") })
	defer func() { p.beginClose(time.Now()); p.Wait() }()
	parkPeer(t, p, ctr)

	for i := 0; i < 3; i++ {
		p.EnqueueMessage(msg)
	}
	fs := &fakeSender{}
	p.Adopt(fs)
	waitFor(t, func() bool { return fs.count() == 3 })

	fs.mu.Lock()
	frames := fs.frames
	fs.mu.Unlock()
	plain, err := EncodeFrame("src", msg, cfg.Framing.Limit)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range frames {
		if !bytes.Equal(raw, plain) {
			t.Errorf("frame %d = %x, want the plain Invoke frame %x (no batch wrapper)", i, raw, plain)
		}
	}
	if got := ctr.BatchesOut.Load(); got != 1 {
		t.Errorf("batches_out = %d, want 1 flush", got)
	}
	if got := ctr.BatchFramesSum.Load(); got != 3 {
		t.Errorf("batch frames sum = %d, want 3", got)
	}
	if got := ctr.batchFrames[2].Load(); got != 1 {
		t.Errorf("le=4 bucket = %d, want 1 (a 3-frame flush)", got)
	}
}

// TestEnqueueDropsUnsendableAtOnce: EnqueueMessage sizes a message once and
// drops one that cannot be encoded, or would not fit a frame alone, right
// there — counted in Drops and in no lane — so the writer encodes only what
// it can send. A valid message after them arrives as exactly the frame
// EncodeStreamFrame builds for it.
func TestEnqueueDropsUnsendableAtOnce(t *testing.T) {
	cfg := backoffConfig(16)
	cfg.Framing = &Framing{From: "src", Stream: true, Limit: 256}
	ctr := &Counters{}
	fs := &fakeSender{}
	p := newPeer("x", cfg, ctr, func() (Sender, error) { return fs, nil })
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	nested := wire.Batch{Msgs: []wire.Message{wire.Batch{}}}
	if _, err := wire.Size(nested); !errors.Is(err, wire.ErrNestedBatch) {
		t.Fatalf("wire.Size(nested batch) err = %v, want ErrNestedBatch", err)
	}
	for i, bad := range []wire.Message{
		wire.Invoke{App: "a", User: "u", Payload: make([]byte, cfg.Framing.Limit)},
		nested,
	} {
		p.EnqueueMessage(bad)
		if got, want := ctr.Drops.Load(), uint64(i+1); got != want {
			t.Errorf("after %T: drops = %d, want %d", bad, got, want)
		}
		if enq := ctr.LaneEnqueued[wire.LaneBulk].Load() + ctr.LaneEnqueued[wire.LaneHigh].Load(); enq != 0 {
			t.Errorf("after %T: lane enqueued = %d, want 0", bad, enq)
		}
	}

	valid := wire.Message(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: 1})
	p.EnqueueMessage(valid)
	waitFor(t, func() bool { return fs.count() == 1 })
	want, err := EncodeStreamFrame("src", valid, cfg.Framing.Limit)
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	got := fs.frames[0]
	fs.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Errorf("frame = %x, want EncodeStreamFrame's %x", got, want)
	}
	if got := ctr.Drops.Load(); got != 2 {
		t.Errorf("drops = %d, want 2", got)
	}
}

// TestEnqueueCompactsDrainedPrefix drives the queue's prefix-reclaim path:
// with the writer parked in backoff, overflow drops advance qhead until the
// drained prefix dominates the array and is compacted away — without losing
// or reordering the surviving entries.
func TestEnqueueCompactsDrainedPrefix(t *testing.T) {
	cfg := Config{QueueDepth: 64, BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: testFraming()}.withDefaults()
	ctr := &Counters{}
	fs := &fakeSender{}
	p := newPeer("x", cfg, ctr, func() (Sender, error) { return nil, errors.New("refused") })
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	p.EnqueueMessage(tagged(0)) // sacrificial: parks the writer in backoff
	waitFor(t, func() bool { return ctr.Drops.Load() == 1 && peerState(p) == StateBackoff })

	// 127 more messages against a 64-deep queue: 63 overflow drops advance
	// qhead one per drop; the 63rd crosses the compaction threshold
	// (qhead > 32 and drained prefix >= half the array).
	for n := 1; n <= 127; n++ {
		p.EnqueueMessage(tagged(n))
	}
	p.mu.Lock()
	bulk := &p.lanes[wire.LaneBulk]
	qhead, qlen := bulk.qhead, len(bulk.q)
	first, last := bulk.q[bulk.qhead].msg, bulk.q[len(bulk.q)-1].msg
	p.mu.Unlock()
	if qhead != 0 {
		t.Errorf("qhead = %d, want 0 (drained prefix compacted)", qhead)
	}
	if qlen != 64 {
		t.Errorf("len(q) = %d, want 64 (backing array shrunk to live entries)", qlen)
	}
	if first != tagged(64) || last != tagged(127) {
		t.Errorf("live range = [%v..%v], want [64..127]", first, last)
	}
	if got := ctr.Drops.Load(); got != 64 {
		t.Errorf("drops = %d, want 64 (1 sacrificial + 63 overflow)", got)
	}

	// Release the peer: the survivors must arrive intact and in order.
	p.SetDial(func() (Sender, error) { return fs, nil }, false)
	waitFor(t, func() bool { return fs.count() == 64 })
	if got := fs.tags(); got[0] != 64 || got[63] != 127 {
		t.Errorf("delivered [%d..%d], want [64..127]: compaction reordered or corrupted survivors",
			got[0], got[63])
	}
	if got := ctr.Drops.Load(); got != 64 {
		t.Errorf("drops after delivery = %d, want 64 (no double-count)", got)
	}
}

// TestDrainDeadlineDropsQueued: a close deadline expiring with frames still
// held back by backoff drops exactly the queued count, promptly.
func TestDrainDeadlineDropsQueued(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", backoffConfig(16), ctr,
		func() (Sender, error) { return nil, errors.New("refused") })
	parkPeer(t, p, ctr)

	for i := uint64(1); i <= 5; i++ {
		p.EnqueueMessage(wire.Heartbeat{Nonce: i})
	}
	start := time.Now()
	p.beginClose(time.Now().Add(40 * time.Millisecond))
	p.Wait()
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("close took %v, want bounded by the 40ms drain deadline", el)
	}
	if got := ctr.Drops.Load(); got != 6 {
		t.Errorf("drops = %d, want 6 (1 sacrificial + exactly the 5 queued)", got)
	}
}

// partialSender accepts frames until a scripted point, then fails the write,
// reporting exactly how many frames made it out — the transport contract a
// mid-batch TCP write error produces.
type partialSender struct {
	mu        sync.Mutex
	frames    [][]byte
	failAfter int // fail WriteBatch after accepting this many frames; -1 = never
}

func (s *partialSender) WriteFrame(f []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter == 0 {
		s.failAfter = -1
		return errors.New("scripted write failure")
	}
	if s.failAfter > 0 {
		s.failAfter--
	}
	s.frames = append(s.frames, append([]byte(nil), f...))
	return nil
}

func (s *partialSender) WriteBatch(frames net.Buffers) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	written := 0
	for _, f := range frames {
		if s.failAfter >= 0 && written == s.failAfter {
			s.failAfter = -1
			return written, errors.New("scripted mid-batch write failure")
		}
		s.frames = append(s.frames, append([]byte(nil), f...))
		written++
	}
	return written, nil
}

func (s *partialSender) Close() error { return nil }

func (s *partialSender) tags() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tagsOf(s.frames)
}

// TestPartialBatchRetriesOnFreshConnection: a mid-batch write failure
// delivers the unwritten remainder on one fresh connection — already-written
// frames are never re-sent, nothing is dropped, and every counter is exact.
// The framing fits one message per frame, so the flush writes five frames.
func TestPartialBatchRetriesOnFreshConnection(t *testing.T) {
	ctr := &Counters{}
	s1 := &partialSender{failAfter: 2}
	s2 := &partialSender{failAfter: -1}
	var mu sync.Mutex
	script := []func() (Sender, error){
		func() (Sender, error) { return nil, errors.New("refused") }, // parks the peer
		func() (Sender, error) { return s1, nil },
		func() (Sender, error) { return s2, nil },
	}
	dial := func() (Sender, error) {
		mu.Lock()
		next := script[0]
		script = script[1:]
		mu.Unlock()
		return next()
	}
	cfg := Config{QueueDepth: 16, BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: testFraming()}.withDefaults()
	p := newPeer("x", cfg, ctr, dial)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	p.EnqueueMessage(tagged(0)) // sacrificial
	waitFor(t, func() bool { return ctr.Drops.Load() == 1 && peerState(p) == StateBackoff })
	for n := 1; n <= 5; n++ {
		p.EnqueueMessage(tagged(n))
	}
	p.ClearBackoff()
	waitFor(t, func() bool { return len(s2.tags()) == 3 })

	if got := s1.tags(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("first connection got %v, want [1 2]", got)
	}
	if got := s2.tags(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Errorf("retry connection got %v, want [3 4 5] (no re-send, no loss)", got)
	}
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"drops", ctr.Drops.Load(), 1}, // the sacrificial message only
		{"dials", ctr.Dials.Load(), 3},
		{"dial_failures", ctr.DialFailures.Load(), 1},
		{"reconnects", ctr.Reconnects.Load(), 1},
		{"bytes_out", ctr.BytesOut.Load(), uint64(5 * cfg.Framing.Limit)},
		{"batches_out", ctr.BatchesOut.Load(), 2}, // 2 frames + 3 frames
		{"batch_frames_sum", ctr.BatchFramesSum.Load(), 5},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestPartialBatchDropsRemainderExactlyOnce: when the retry connection also
// cannot be established, the unwritten remainder is dropped exactly once —
// delivered + dropped equals enqueued, with no double-count and no loss of
// accounting. As above, each message is its own frame.
func TestPartialBatchDropsRemainderExactlyOnce(t *testing.T) {
	ctr := &Counters{}
	s1 := &partialSender{failAfter: 2}
	var mu sync.Mutex
	script := []func() (Sender, error){
		func() (Sender, error) { return nil, errors.New("refused") }, // parks the peer
		func() (Sender, error) { return s1, nil },
		func() (Sender, error) { return nil, errors.New("refused") }, // retry dial fails
	}
	dial := func() (Sender, error) {
		mu.Lock()
		next := script[0]
		script = script[1:]
		mu.Unlock()
		return next()
	}
	cfg := Config{QueueDepth: 16, BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: testFraming()}.withDefaults()
	p := newPeer("x", cfg, ctr, dial)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	p.EnqueueMessage(tagged(0)) // sacrificial
	waitFor(t, func() bool { return ctr.Drops.Load() == 1 && peerState(p) == StateBackoff })
	for n := 1; n <= 5; n++ {
		p.EnqueueMessage(tagged(n))
	}
	p.ClearBackoff()
	// 2 delivered on s1, retry dial refused, remaining 3 dropped once.
	waitFor(t, func() bool { return ctr.Drops.Load() == 4 })

	if got := s1.tags(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("delivered %v, want [1 2]", got)
	}
	if got := ctr.DialFailures.Load(); got != 2 {
		t.Errorf("dial_failures = %d, want 2", got)
	}
	if got, want := ctr.BytesOut.Load(), uint64(2*cfg.Framing.Limit); got != want {
		t.Errorf("bytes_out = %d, want %d (only the delivered frames)", got, want)
	}
	// Conservation: 6 enqueued = 2 delivered + 4 dropped, each exactly once.
	if delivered, dropped := uint64(len(s1.tags())), ctr.Drops.Load(); delivered+dropped != 6 {
		t.Errorf("delivered %d + dropped %d != 6 enqueued", delivered, dropped)
	}
}

// discardSender is an allocation-free sink for the steady-state budget test.
type discardSender struct{}

func (discardSender) WriteFrame([]byte) error                    { return nil }
func (discardSender) WriteBatch(frames net.Buffers) (int, error) { return len(frames), nil }
func (discardSender) Close() error                               { return nil }

// TestBatchedSendZeroAllocs pins the steady-state send path at zero
// allocations per message with batching enabled: enqueue, drain, size,
// coalesce, encode, and write all run on reused writer-owned buffers.
func TestBatchedSendZeroAllocs(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", backoffConfig(256), ctr,
		func() (Sender, error) { return discardSender{}, nil })
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	msg := wire.Message(wire.Query{App: "app", User: "user", Right: wire.RightUse, Nonce: 7})
	drain := func() {
		for {
			p.mu.Lock()
			empty := p.lanes[wire.LaneBulk].depth() == 0 && p.lanes[wire.LaneHigh].depth() == 0
			p.mu.Unlock()
			if empty {
				return
			}
			runtime.Gosched()
		}
	}
	// Warm up until every reusable buffer (queue, batch, encode buffer,
	// pieces, net.Buffers, coalescing run) reaches steady capacity.
	for i := 0; i < 50; i++ {
		for j := 0; j < 8; j++ {
			p.EnqueueMessage(msg)
		}
		drain()
	}
	allocs := testing.AllocsPerRun(200, func() {
		for j := 0; j < 8; j++ {
			p.EnqueueMessage(msg)
		}
		drain()
	})
	if allocs > 0 {
		t.Errorf("batched send path allocates %.2f objects per 8-message burst, budget is 0", allocs)
	}
	if ctr.BatchesOut.Load() == 0 || ctr.Drops.Load() != 0 {
		t.Errorf("batches=%d drops=%d: messages did not flow through the batched path",
			ctr.BatchesOut.Load(), ctr.Drops.Load())
	}
}

// TestEncodeFramePresizedExactly pins the satellite fix: both frame encoders
// presize from wire.Size, so encoding is a single exact allocation with no
// mid-append realloc, regardless of message size.
func TestEncodeFramePresizedExactly(t *testing.T) {
	// Pre-boxed like the real send path, so the measurement sees only the
	// encoder's own allocations, not interface conversion at the call site.
	big := wire.Message(wire.Sealed{User: "u", Frame: make([]byte, 32<<10), Sig: make([]byte, 64)})

	df, err := EncodeFrame("node-a", big, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if cap(df) != len(df) {
		t.Errorf("EncodeFrame cap %d != len %d: buffer not presized exactly", cap(df), len(df))
	}
	sf, err := EncodeStreamFrame("node-a", big, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if cap(sf) != len(sf) {
		t.Errorf("EncodeStreamFrame cap %d != len %d: buffer not presized exactly", cap(sf), len(sf))
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeFrame("node-a", big, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("EncodeFrame allocates %.1f objects/op, budget is 1 (the frame buffer)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeStreamFrame("node-a", big, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("EncodeStreamFrame allocates %.1f objects/op, budget is 1 (the frame buffer)", allocs)
	}
}

// TestSplitDatagram covers both datagram layouts and the malformed cases.
func TestSplitDatagram(t *testing.T) {
	raw := []byte{5, 'h', 'e', 'l', 'l', 'o'} // uvarint id-len 5: a plain frame
	parts, err := SplitDatagram(raw, nil)
	if err != nil || len(parts) != 1 || &parts[0][0] != &raw[0] {
		t.Errorf("raw datagram: parts=%v err=%v, want the datagram itself", parts, err)
	}

	packed := []byte{PackedMarker, 2, 'a', 'b', 3, 'c', 'd', 'e', 1, 'f'}
	parts, err = SplitDatagram(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || string(parts[0]) != "ab" || string(parts[1]) != "cde" || string(parts[2]) != "f" {
		t.Errorf("packed datagram split = %q", parts)
	}

	bad := [][]byte{
		nil,                    // empty datagram
		{PackedMarker, 5, 'a'}, // length overruns the datagram
		{PackedMarker, 0},      // zero-length payload
		{PackedMarker, 0x80},   // truncated uvarint
	}
	for i, d := range bad {
		if _, err := SplitDatagram(d, nil); err == nil {
			t.Errorf("malformed datagram %d accepted", i)
		}
	}
}

// TestDecodeUnwrapsBatch: transports hand handlers only protocol messages,
// in send order, whether or not the sender coalesced them: a frame decodes
// to the messages it carries, one for a plain frame.
func TestDecodeUnwrapsBatch(t *testing.T) {
	var d FrameDecoder
	for _, c := range []struct {
		from wire.NodeID
		msg  wire.Message
		want []wire.Message
	}{
		{"a", wire.Heartbeat{Nonce: 1}, []wire.Message{wire.Heartbeat{Nonce: 1}}},
		{"b", wire.Batch{Msgs: []wire.Message{wire.Query{Nonce: 2}, wire.Heartbeat{Nonce: 3}}},
			[]wire.Message{wire.Query{Nonce: 2}, wire.Heartbeat{Nonce: 3}}},
		{"c", wire.Batch{}, nil},
	} {
		raw, err := EncodeFrame(c.from, c.msg, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		from, msgs, err := d.Decode(raw)
		if err != nil || from != c.from || len(msgs) != len(c.want) || len(msgs) > 0 && !reflect.DeepEqual(msgs, c.want) {
			t.Errorf("%v from %s decoded to %v from %s (%v)", c.msg, c.from, msgs, from, err)
		}
	}
}

// TestDecodedMessagesOutliveTheirSlice: the decoder reuses its slice for the
// next frame, but a message already handed out is the handler's: decoding
// frame 2 into the same slice leaves frame 1's messages as they were.
func TestDecodedMessagesOutliveTheirSlice(t *testing.T) {
	first := []wire.Message{
		wire.Query{App: "app", User: "alice", Right: wire.RightUse, Nonce: 1},
		wire.Invoke{App: "app", User: "alice", ReqID: 1, Payload: []byte("first")},
	}
	second := []wire.Message{
		wire.Query{App: "other", User: "bob", Right: wire.RightManage, Nonce: 2},
		wire.Invoke{App: "other", User: "bob", ReqID: 2, Payload: []byte("frame 2")},
	}
	var d FrameDecoder
	var delivered []wire.Message
	for i, msgs := range [][]wire.Message{first, second} {
		raw, err := EncodeFrame("m0", wire.Batch{Msgs: msgs}, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := d.Decode(raw)
		if err != nil || !reflect.DeepEqual(got, msgs) {
			t.Fatalf("frame %d decoded to %v (%v), want %v", i+1, got, err, msgs)
		}
		if i == 0 {
			delivered = append(delivered, got...)
		}
	}
	if !reflect.DeepEqual(delivered, first) {
		t.Fatalf("frame 1's messages after frame 2 was decoded: %v, want %v", delivered, first)
	}
}

// TestRegisterTransportBatchMetrics scrapes the batching families through
// the real render path and checks every series exactly against scripted
// counter updates.
func TestRegisterTransportBatchMetrics(t *testing.T) {
	ctr := &Counters{}
	ctr.observeBatch(1)
	ctr.observeBatch(3)
	ctr.observeBatch(200) // beyond the last bound: lands in +Inf only

	reg := telemetry.NewRegistry()
	RegisterTransport(reg, func() TransportStats { return ctr.snapshot() })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	types, err := telemetry.ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if types["netcore_batches_out_total"] != "counter" {
		t.Errorf("netcore_batches_out_total type = %q, want counter", types["netcore_batches_out_total"])
	}
	if types["netcore_batch_frames"] != "histogram" {
		t.Errorf("netcore_batch_frames type = %q, want histogram", types["netcore_batch_frames"])
	}
	for _, want := range []string{
		"netcore_batches_out_total 3",
		`netcore_batch_frames_bucket{le="1"} 1`,
		`netcore_batch_frames_bucket{le="2"} 1`,
		`netcore_batch_frames_bucket{le="4"} 2`,
		`netcore_batch_frames_bucket{le="128"} 2`,
		`netcore_batch_frames_bucket{le="+Inf"} 3`,
		"netcore_batch_frames_sum 204",
		"netcore_batch_frames_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A stats source that predates batching (no histogram counts) must
	// render an empty histogram, not a panic.
	reg2 := telemetry.NewRegistry()
	RegisterTransport(reg2, func() TransportStats { return TransportStats{} })
	var sb2 strings.Builder
	if err := reg2.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParseText(strings.NewReader(sb2.String())); err != nil {
		t.Fatalf("legacy-stats exposition does not parse: %v", err)
	}
}
