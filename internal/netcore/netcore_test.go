package netcore

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"wanac/internal/wire"
)

// peerState reads p's health state under its lock.
func peerState(p *Peer) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fakeSender records frames and fails writes on demand.
type fakeSender struct {
	mu       sync.Mutex
	frames   [][]byte
	failNext bool
	closed   bool
}

func (s *fakeSender) WriteFrame(f []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext {
		s.failNext = false
		return errors.New("fake write error")
	}
	s.frames = append(s.frames, append([]byte(nil), f...))
	return nil
}

func (s *fakeSender) WriteBatch(frames net.Buffers) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext {
		s.failNext = false
		return 0, errors.New("fake write error")
	}
	for _, f := range frames {
		s.frames = append(s.frames, append([]byte(nil), f...))
	}
	return len(frames), nil
}

func (s *fakeSender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *fakeSender) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func (s *fakeSender) tags() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tagsOf(s.frames)
}

func (s *fakeSender) setFailNext() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = true
}

func testConfig() Config {
	return Config{
		QueueDepth:   2,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
		Framing:      testFraming(),
	}.withDefaults()
}

// tagged is test message n (n < 128, so every one encodes to the same
// length): a bulk-lane Query whose nonce names it on arrival.
func tagged(n int) wire.Message { return wire.Query{Nonce: uint64(n)} }

// testFraming frames datagrams with room for exactly one tagged message, so
// every message a test peer delivers is its own frame of Limit bytes.
func testFraming() *Framing {
	size, err := wire.Size(tagged(0))
	if err != nil {
		panic(err)
	}
	return &Framing{From: "src", Limit: FrameOverhead("src") + size}
}

// tagsOf reads back the tag of each single-message frame in order; a frame
// that is not one tagged message reads as -1.
func tagsOf(frames [][]byte) []int {
	var d FrameDecoder
	out := make([]int, len(frames))
	for i, f := range frames {
		out[i] = -1
		if _, msgs, err := d.Decode(f); err == nil && len(msgs) == 1 {
			if q, ok := msgs[0].(wire.Query); ok {
				out[i] = int(q.Nonce)
			}
		}
	}
	return out
}

// TestFrameRoundTrip covers the shared stream and datagram framing.
func TestFrameRoundTrip(t *testing.T) {
	msg := wire.Query{App: "x", User: "u", Right: wire.RightUse, Nonce: 3}

	sf, err := EncodeStreamFrame("node-a", msg, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	from, got, err := ReadStreamFrame(bytes.NewReader(sf), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if from != "node-a" {
		t.Errorf("stream from = %q", from)
	}
	if want := []wire.Message{msg}; !reflect.DeepEqual(got, want) {
		t.Errorf("stream msgs = %#v, want %#v", got, want)
	}

	df, err := EncodeFrame("node-b", msg, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	from, got, err = new(FrameDecoder).Decode(df)
	if err != nil {
		t.Fatal(err)
	}
	if from != "node-b" {
		t.Errorf("datagram from = %q", from)
	}
	if want := []wire.Message{msg}; !reflect.DeepEqual(got, want) {
		t.Errorf("datagram msgs = %#v, want %#v", got, want)
	}
}

// TestFrameDecoderAlternatingSenders: one UDP socket hears every peer, so the
// decoder's sender memo must survive senders taking turns. Frames from three
// alternating senders allocate no more than frames from one.
func TestFrameDecoderAlternatingSenders(t *testing.T) {
	msg := wire.Response{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Granted: true}
	ids := []wire.NodeID{"m0", "m1", "m2"}
	var frames [][]byte
	for _, id := range ids {
		f, err := EncodeFrame(id, msg, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	decode := func(n int) float64 {
		var d FrameDecoder
		i := 0
		return testing.AllocsPerRun(300, func() {
			from, _, err := d.Decode(frames[i%n])
			if err != nil || from != ids[i%n] {
				t.Fatalf("frame %d: from %q, err %v", i, from, err)
			}
			i++
		})
	}
	if one, three := decode(1), decode(3); three > one {
		t.Errorf("three alternating senders allocate %.1f objects/frame, one sender %.1f", three, one)
	}
}

func TestFrameRejectsBadSizes(t *testing.T) {
	if _, _, err := ReadStreamFrame(bytes.NewReader([]byte{0, 0, 0, 0}), DefaultMaxFrame); err == nil {
		t.Error("zero-size frame accepted")
	}
	if _, _, err := ReadStreamFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), DefaultMaxFrame); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, _, err := ReadStreamFrame(bytes.NewReader([]byte{0, 0}), DefaultMaxFrame); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestFrameEnforcesOutboundBound: oversized messages are refused at encode
// time on both framings, so they can never reach a peer.
func TestFrameEnforcesOutboundBound(t *testing.T) {
	big := wire.Invoke{App: "x", User: "u", Payload: make([]byte, 4096)}
	if _, err := EncodeStreamFrame("a", big, 1024); err == nil {
		t.Error("oversized stream frame encoded")
	}
	if _, err := EncodeFrame("a", big, 1024); err == nil {
		t.Error("oversized datagram frame encoded")
	}
	if _, err := EncodeStreamFrame("a", big, DefaultMaxFrame); err != nil {
		t.Errorf("frame within bound rejected: %v", err)
	}
}

// TestQueueOverflowDropsOldest pins the exact overflow accounting: with the
// writer stuck dialing and QueueDepth=2, five sends keep the two newest
// messages and count two drops (the first message is already held by the
// writer).
func TestQueueOverflowDropsOldest(t *testing.T) {
	ctr := &Counters{}
	fs := &fakeSender{}
	entered := make(chan struct{})
	release := make(chan struct{})
	dial := func() (Sender, error) {
		close(entered)
		<-release
		return fs, nil
	}
	p := newPeer("x", testConfig(), ctr, dial)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	p.EnqueueMessage(tagged(1))
	<-entered // writer holds message 1 and is blocked in dial
	for n := 2; n <= 5; n++ {
		p.EnqueueMessage(tagged(n))
	}
	if got := ctr.Drops.Load(); got != 2 {
		t.Fatalf("drops after overflow = %d, want 2", got)
	}
	close(release)
	waitFor(t, func() bool { return fs.count() == 3 })

	if got := fs.tags(); !reflect.DeepEqual(got, []int{1, 4, 5}) {
		t.Errorf("delivered messages = %v, want [1 4 5] (oldest dropped first)", got)
	}
	if d := ctr.Dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1", d)
	}
	if f := ctr.DialFailures.Load(); f != 0 {
		t.Errorf("dial failures = %d, want 0", f)
	}
	if b, want := ctr.BytesOut.Load(), uint64(3*testFraming().Limit); b != want {
		t.Errorf("bytes out = %d, want %d", b, want)
	}
}

// TestScriptedFailureCounters runs a scripted connect/fail/reconnect
// scenario and checks every counter exactly: dial ok, write failure forcing
// a redial that fails (dropping the message), then a backed-off successful
// redial counting one reconnect.
func TestScriptedFailureCounters(t *testing.T) {
	ctr := &Counters{}
	s1, s2 := &fakeSender{}, &fakeSender{}
	var mu sync.Mutex
	script := []func() (Sender, error){
		func() (Sender, error) { return s1, nil },
		func() (Sender, error) { return nil, errors.New("refused") },
		func() (Sender, error) { return s2, nil },
	}
	dial := func() (Sender, error) {
		mu.Lock()
		next := script[0]
		script = script[1:]
		mu.Unlock()
		return next()
	}
	p := newPeer("x", testConfig(), ctr, dial)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	// Message 1: dial #1 succeeds, write lands on s1.
	p.EnqueueMessage(tagged(1))
	waitFor(t, func() bool { return s1.count() == 1 })

	// Message 2: s1's write fails, dial #2 is refused, 2 is dropped and the
	// peer enters backoff.
	s1.setFailNext()
	p.EnqueueMessage(tagged(2))
	waitFor(t, func() bool { return ctr.DialFailures.Load() == 1 })
	if got := peerState(p); got != StateBackoff {
		t.Errorf("state after refused dial = %v, want backoff", got)
	}

	// Message 3: after the backoff expires, dial #3 succeeds — one reconnect.
	p.EnqueueMessage(tagged(3))
	waitFor(t, func() bool { return s2.count() == 1 })

	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"dials", ctr.Dials.Load(), 3},
		{"dial_failures", ctr.DialFailures.Load(), 1},
		{"drops", ctr.Drops.Load(), 1},
		{"reconnects", ctr.Reconnects.Load(), 1},
		{"bytes_out", ctr.BytesOut.Load(), uint64(2 * testFraming().Limit)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := peerState(p); got != StateUp {
		t.Errorf("final state = %v, want up", got)
	}
	if !s1.closed {
		t.Error("failed sender was not closed")
	}
}

// TestBackoffGrowsAndCaps pins the exponential schedule: min, 2·min,
// 4·min, ... capped at max.
func TestBackoffGrowsAndCaps(t *testing.T) {
	cfg := testConfig() // min 5ms, max 20ms
	ctr := &Counters{}
	dial := func() (Sender, error) { return nil, errors.New("refused") }
	p := newPeer("x", cfg, ctr, dial)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 20 * time.Millisecond, // capped
	}
	for i, w := range want {
		p.EnqueueMessage(tagged(i))
		n := uint64(i + 1)
		waitFor(t, func() bool { return ctr.DialFailures.Load() == n })
		p.mu.Lock()
		got := p.backoff
		p.mu.Unlock()
		if got != w {
			t.Fatalf("backoff after failure %d = %v, want %v", i+1, got, w)
		}
	}
	if d := ctr.Drops.Load(); d != uint64(len(want)) {
		t.Errorf("drops = %d, want %d (one per failed dial)", d, len(want))
	}
}

// TestAdoptAndDiscard: a reply-only peer (nil dial) uses an adopted sender,
// and drops messages once it is discarded.
func TestAdoptAndDiscard(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", testConfig(), ctr, nil)
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	fs := &fakeSender{}
	if !p.Adopt(fs) {
		t.Fatal("adopt refused")
	}
	if got := peerState(p); got != StateUp {
		t.Errorf("state after adopt = %v, want up", got)
	}
	other := &fakeSender{}
	if p.Adopt(other) {
		t.Error("second adopt accepted while a sender is live")
	}
	p.EnqueueMessage(tagged(1))
	waitFor(t, func() bool { return fs.count() == 1 })

	p.Discard(fs)
	if !fs.closed {
		t.Error("discarded sender not closed")
	}
	p.EnqueueMessage(tagged(2))
	waitFor(t, func() bool { return ctr.Drops.Load() == 1 })
	if fs.count() != 1 {
		t.Error("message written to discarded sender")
	}
}

// TestCloseDrainsQueue: messages queued before Close are flushed within the
// drain deadline.
func TestCloseDrainsQueue(t *testing.T) {
	ctr := &Counters{}
	fs := &fakeSender{}
	p := newPeer("x", Config{QueueDepth: 16, Framing: testFraming()}.withDefaults(), ctr,
		func() (Sender, error) { return fs, nil })
	for n := 1; n <= 5; n++ {
		p.EnqueueMessage(tagged(n))
	}
	p.beginClose(time.Now().Add(time.Second))
	p.Wait()
	if got := fs.tags(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("delivered %v, want [1 2 3 4 5]", got)
	}
	if d := ctr.Drops.Load(); d != 0 {
		t.Errorf("drops = %d, want 0", d)
	}
	if !fs.closed {
		t.Error("sender not closed on shutdown")
	}
}

// TestCloseDropsUndeliverable: when the peer is unreachable, Close gives up
// at the drain deadline and counts every queued message as dropped.
func TestCloseDropsUndeliverable(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", testConfig(), ctr,
		func() (Sender, error) { return nil, errors.New("refused") })
	for n := 1; n <= 4; n++ {
		p.EnqueueMessage(tagged(n))
	}
	start := time.Now()
	p.beginClose(time.Now().Add(50 * time.Millisecond))
	p.Wait()
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("close took %v, want bounded by drain deadline", el)
	}
	if d := ctr.Drops.Load(); d != 4 {
		t.Errorf("drops = %d, want 4", d)
	}
}

// TestSetDialDropsCurrent: re-pointing a peer discards the live sender so
// nothing more is written to the stale destination.
func TestSetDialDropsCurrent(t *testing.T) {
	ctr := &Counters{}
	oldS, newS := &fakeSender{}, &fakeSender{}
	p := newPeer("x", testConfig(), ctr, func() (Sender, error) { return oldS, nil })
	defer func() { p.beginClose(time.Now()); p.Wait() }()

	p.EnqueueMessage(tagged(1))
	waitFor(t, func() bool { return oldS.count() == 1 })

	p.SetDial(func() (Sender, error) { return newS, nil }, true)
	if !oldS.closed {
		t.Error("stale sender not closed on re-point")
	}
	p.EnqueueMessage(tagged(2))
	waitFor(t, func() bool { return newS.count() == 1 })
	if oldS.count() != 1 {
		t.Error("message written to stale sender after re-point")
	}
}

// TestGroupStats aggregates queue depth and peer states.
func TestGroupStats(t *testing.T) {
	g := NewGroup("test", Config{QueueDepth: 8, BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: testFraming()})
	defer g.Close()

	up := g.Ensure("up", nil)
	up.Adopt(&fakeSender{})
	g.Ensure("connecting", nil)
	down := g.Ensure("down", func() (Sender, error) { return nil, errors.New("refused") })
	down.EnqueueMessage(tagged(1)) // forces a dial failure -> backoff
	// The state turns backoff before the failed message is counted dropped:
	// wait for both, or the counters can be read in between.
	waitFor(t, func() bool { st := g.Stats(); return st.PeersBackoff == 1 && st.Drops == 1 })

	st := g.Stats()
	if st.PeersUp != 1 || st.PeersConnecting != 1 || st.PeersBackoff != 1 {
		t.Errorf("peer states = up:%d connecting:%d backoff:%d, want 1/1/1",
			st.PeersUp, st.PeersConnecting, st.PeersBackoff)
	}
	if st.Dials != 1 || st.DialFailures != 1 || st.Drops != 1 {
		t.Errorf("counters = %+v", st)
	}

	// Queue depth: enqueue to the backed-off peer; the messages sit waiting.
	down.EnqueueMessage(tagged(2))
	down.EnqueueMessage(tagged(3))
	if st := g.Stats(); st.QueueDepth != 2 {
		t.Errorf("queue depth = %d, want 2", st.QueueDepth)
	}
}

// TestEnqueueAfterCloseDrops: sends after Close are counted, not queued.
func TestEnqueueAfterCloseDrops(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", testConfig(), ctr, nil)
	p.beginClose(time.Now())
	p.Wait()
	p.EnqueueMessage(tagged(1))
	if d := ctr.Drops.Load(); d != 1 {
		t.Errorf("drops = %d, want 1", d)
	}
}

// TestBuildConfigOptions: every functional option lands in the config.
func TestBuildConfigOptions(t *testing.T) {
	cfg := BuildConfig(
		WithQueueDepth(7),
		WithBackoff(time.Millisecond, time.Second),
		WithDialTimeout(123*time.Millisecond),
	)
	if cfg.QueueDepth != 7 || cfg.BackoffMin != time.Millisecond ||
		cfg.BackoffMax != time.Second || cfg.DialTimeout != 123*time.Millisecond {
		t.Errorf("options not applied: %+v", cfg)
	}
	def := BuildConfig()
	if def.QueueDepth <= 0 || def.MaxFrame != DefaultMaxFrame || def.Dialer == nil {
		t.Errorf("defaults missing: %+v", def)
	}
}
