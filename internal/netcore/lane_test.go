package netcore

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// TestHighLaneDrainsFirst: control traffic enqueued after a bulk backlog
// still leaves first. With the writer parked, three queries accumulate in
// the bulk lane before two revocation notices arrive in the high lane; the
// flush must put the revocations at the front of the coalesced frame.
func TestHighLaneDrainsFirst(t *testing.T) {
	ctr := &Counters{}
	p := newPeer("x", backoffConfig(16), ctr,
		func() (Sender, error) { return nil, errors.New("refused") })
	defer func() { p.beginClose(time.Now()); p.Wait() }()
	parkPeer(t, p, ctr)

	for i := uint64(1); i <= 3; i++ {
		p.EnqueueMessage(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: i})
	}
	p.EnqueueMessage(wire.RevokeNotice{App: "a", User: "mallory"})
	p.EnqueueMessage(wire.RevokeNotice{App: "a", User: "trudy"})

	fs := &fakeSender{}
	if !p.Adopt(fs) {
		t.Fatal("adopt refused")
	}
	waitFor(t, func() bool { return fs.count() == 1 })

	fs.mu.Lock()
	raw := fs.frames[0]
	fs.mu.Unlock()
	_, msgs, err := new(FrameDecoder).Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 5 {
		t.Fatalf("coalesced frame carries %d messages, want 5", len(msgs))
	}
	for i := 0; i < 2; i++ {
		if _, ok := msgs[i].(wire.RevokeNotice); !ok {
			t.Errorf("batch[%d] = %T, want RevokeNotice ahead of queries", i, msgs[i])
		}
	}
	for i := 2; i < 5; i++ {
		if q, ok := msgs[i].(wire.Query); !ok || q.Nonce != uint64(i-1) {
			t.Errorf("batch[%d] = %#v, want Query nonce %d (bulk order preserved)", i, msgs[i], i-1)
		}
	}
	// Per-lane delivery accounting: 2 high delivered, 3 bulk delivered; the
	// sacrificial parking heartbeat is the lone high-lane drop.
	if got := ctr.LaneDelivered[wire.LaneHigh].Load(); got != 2 {
		t.Errorf("high delivered = %d, want 2", got)
	}
	if got := ctr.LaneDelivered[wire.LaneBulk].Load(); got != 3 {
		t.Errorf("bulk delivered = %d, want 3", got)
	}
	if got := ctr.LaneDrops[wire.LaneHigh].Load(); got != 1 {
		t.Errorf("high drops = %d, want 1 (parking heartbeat)", got)
	}
	if got := ctr.LaneDrops[wire.LaneBulk].Load(); got != 0 {
		t.Errorf("bulk drops = %d, want 0", got)
	}
}

// TestLaneOverflowIsolated: each lane overflows only into itself — a bulk
// flood cannot evict queued control traffic and vice versa — and the
// conservation invariant delivered+drops == enqueued holds per lane through
// overflow, parking, and close-with-queued drops.
func TestLaneOverflowIsolated(t *testing.T) {
	cfg := Config{
		QueueDepth: 4, LaneDepth: 2,
		BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: &Framing{From: "src", Stream: false, Limit: 8 << 10},
	}.withDefaults()
	ctr := &Counters{}
	p := newPeer("x", cfg, ctr, func() (Sender, error) { return nil, errors.New("refused") })
	parkPeer(t, p, ctr) // 1 high-lane enqueue + drop

	for i := uint64(0); i < 10; i++ { // bulk: 6 overflow drops against depth 4
		p.EnqueueMessage(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: i})
	}
	for i := uint64(0); i < 5; i++ { // high: 3 overflow drops against lane depth 2
		p.EnqueueMessage(wire.RevokeNotice{App: "a", User: "u"})
	}
	if got := ctr.LaneDrops[wire.LaneBulk].Load(); got != 6 {
		t.Errorf("bulk overflow drops = %d, want 6", got)
	}
	if got := ctr.LaneDrops[wire.LaneHigh].Load(); got != 4 {
		t.Errorf("high drops = %d, want 4 (1 parking + 3 overflow)", got)
	}
	depths, _ := p.status()
	if depths != [2]int{4, 2} {
		t.Errorf("lane depths = %v, want [4 2]", depths)
	}

	// Close with the writer still parked: the queued remainder is dropped
	// per lane and the books balance exactly.
	p.beginClose(time.Now())
	p.Wait()
	for _, lane := range []wire.Lane{wire.LaneBulk, wire.LaneHigh} {
		enq := ctr.LaneEnqueued[lane].Load()
		del := ctr.LaneDelivered[lane].Load()
		drop := ctr.LaneDrops[lane].Load()
		if del+drop != enq {
			t.Errorf("%s lane: delivered %d + drops %d != enqueued %d", lane, del, drop, enq)
		}
	}
	wantDrops := ctr.LaneDrops[wire.LaneBulk].Load() + ctr.LaneDrops[wire.LaneHigh].Load()
	if got := ctr.Drops.Load(); got != wantDrops {
		t.Errorf("aggregate drops = %d, want %d (sum of lanes)", got, wantDrops)
	}
	if got := ctr.LaneEnqueued[wire.LaneBulk].Load(); got != 10 {
		t.Errorf("bulk enqueued = %d, want 10", got)
	}
	if got := ctr.LaneEnqueued[wire.LaneHigh].Load(); got != 6 {
		t.Errorf("high enqueued = %d, want 6 (1 parking + 5 revokes)", got)
	}
}

// TestLaneStatsAndMetrics pins the per-lane view through Group.Stats and the
// /metrics exposition: depths split by lane, and the lane counter families
// render with bulk/high labels.
func TestLaneStatsAndMetrics(t *testing.T) {
	cfg := Config{
		QueueDepth: 16,
		BackoffMin: time.Minute, BackoffMax: time.Minute,
		Framing: &Framing{From: "src", Stream: false, Limit: 8 << 10},
	}
	g := NewGroup("test", cfg)
	defer g.Close()
	g.Ensure("m0", func() (Sender, error) { return nil, errors.New("refused") })
	p := g.Get("m0")
	parkPeer(t, p, g.Counters())

	p.EnqueueMessage(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: 1})
	p.EnqueueMessage(wire.Query{App: "a", User: "u", Right: wire.RightUse, Nonce: 2})
	p.EnqueueMessage(wire.RevokeNotice{App: "a", User: "u"})

	st := g.Stats()
	if st.LaneDepths != [2]int{2, 1} {
		t.Errorf("lane depths = %v, want [2 1]", st.LaneDepths)
	}
	if st.QueueDepth != 3 {
		t.Errorf("queue depth = %d, want 3", st.QueueDepth)
	}
	if st.LaneEnqueued[wire.LaneBulk] != 2 || st.LaneEnqueued[wire.LaneHigh] != 2 {
		t.Errorf("lane enqueued = %v/%v, want 2/2", st.LaneEnqueued[wire.LaneBulk], st.LaneEnqueued[wire.LaneHigh])
	}

	reg := telemetry.NewRegistry()
	RegisterTransport(reg, g.Stats)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := telemetry.ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, line := range []string{
		`wanac_transport_lane_enqueued_total{lane="bulk"} 2`,
		`wanac_transport_lane_enqueued_total{lane="high"} 2`,
		`wanac_transport_lane_drops_total{lane="high"} 1`,
		`wanac_transport_lane_depth{lane="bulk"} 2`,
		`wanac_transport_lane_depth{lane="high"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}
