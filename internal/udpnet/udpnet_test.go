package udpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/netcore"
	"wanac/internal/wire"
)

type collector struct {
	mu  sync.Mutex
	got []wire.Envelope
}

func (c *collector) HandleMessage(from wire.NodeID, msg wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, wire.Envelope{From: from, Msg: msg})
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func listen(t *testing.T, id wire.NodeID) *Node {
	t.Helper()
	n, err := Listen(id, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSendReceive(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	rec := &collector{}
	b.SetHandler(rec)
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.Send("b", wire.Heartbeat{Nonce: 9})
	waitFor(t, func() bool { return rec.count() == 1 })
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.got[0].From != "a" {
		t.Errorf("from = %q", rec.got[0].From)
	}
	if hb, ok := rec.got[0].Msg.(wire.Heartbeat); !ok || hb.Nonce != 9 {
		t.Errorf("msg = %#v", rec.got[0].Msg)
	}
}

func TestReplyLearnsSourceAddress(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	recA := &collector{}
	a.SetHandler(recA)
	b.SetHandler(handlerFunc(func(from wire.NodeID, msg wire.Message) {
		if hb, ok := msg.(wire.Heartbeat); ok {
			b.Send(from, wire.HeartbeatAck{Nonce: hb.Nonce}) // b never called AddPeer("a")
		}
	}))
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.Send("b", wire.Heartbeat{Nonce: 4})
	waitFor(t, func() bool { return recA.count() == 1 })
}

func TestSendUnknownAndOversized(t *testing.T) {
	a := listen(t, "a")
	a.Send("ghost", wire.Heartbeat{}) // unknown peer: dropped by the writer
	b := listen(t, "b")
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.Send("b", wire.Invoke{App: "x", User: "u", Payload: make([]byte, DefaultMTU+1)})
	// Both must drop without crashing or delivering; the oversized frame is
	// dropped synchronously, the unknown-peer frame on its writer goroutine.
	waitFor(t, func() bool {
		st := a.Stats()
		return st.Sends == 2 && st.Drops == 2
	})
}

func TestAddPeerBadAddress(t *testing.T) {
	a := listen(t, "a")
	if err := a.AddPeer("x", "not-an-address:::"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestMalformedDatagramIgnored(t *testing.T) {
	a := listen(t, "a")
	rec := &collector{}
	a.SetHandler(rec)
	b := listen(t, "b")
	if err := b.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}
	// Raw garbage straight to the socket.
	conn := b.conn
	addr := a.conn.LocalAddr()
	if _, err := conn.WriteTo([]byte{0xFF, 0xFE, 0x01}, addr); err != nil {
		t.Fatal(err)
	}
	b.Send("a", wire.Heartbeat{Nonce: 1}) // a valid one after the garbage
	waitFor(t, func() bool { return rec.count() == 1 })
}

func TestCloseIdempotent(t *testing.T) {
	n := listen(t, "x")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n.Send("anybody", wire.Heartbeat{}) // after close: silent no-op
}

// TestProtocolOverUDP runs grant/check/revoke across real UDP sockets: the
// protocol must work over a transport that genuinely drops and reorders.
func TestProtocolOverUDP(t *testing.T) {
	const app wire.AppID = "stocks"
	mgrNode := listen(t, "m0")
	hostNode := listen(t, "h0")
	if err := mgrNode.AddPeer("h0", hostNode.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := hostNode.AddPeer("m0", mgrNode.Addr()); err != nil {
		t.Fatal(err)
	}

	mgr := core.NewManager("m0", mgrNode, nil, nil)
	if err := mgr.AddApp(app, core.ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: 5 * time.Second,
		UpdateRetry: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	mgr.Seed(app, "root", wire.RightManage)
	mgr.Seed(app, "alice", wire.RightUse)
	mgrNode.SetHandler(mgr)

	host := core.NewHost("h0", hostNode, nil, nil)
	if err := host.RegisterApp(app, core.HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy: core.Policy{
			CheckQuorum: 1, Te: 5 * time.Second,
			QueryTimeout: 300 * time.Millisecond, MaxAttempts: 5,
		},
	}); err != nil {
		t.Fatal(err)
	}
	hostNode.SetHandler(host)

	decCh := make(chan core.Decision, 1)
	host.Check(app, "alice", wire.RightUse, func(d core.Decision) { decCh <- d })
	select {
	case d := <-decCh:
		if !d.Allowed {
			t.Fatalf("decision = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("check timed out")
	}

	replyCh := make(chan wire.AdminReply, 1)
	mgr.Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: app, User: "alice", Right: wire.RightUse, Issuer: "root",
	}, func(r wire.AdminReply) { replyCh <- r })
	select {
	case r := <-replyCh:
		if !r.QuorumReached {
			t.Fatalf("revoke reply = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("revoke timed out")
	}
	waitFor(t, func() bool { return host.CacheLen() == 0 })
}

type handlerFunc func(from wire.NodeID, msg wire.Message)

func (f handlerFunc) HandleMessage(from wire.NodeID, msg wire.Message) { f(from, msg) }

// TestStaticPeerNotRelearned: a datagram claiming a configured peer's id
// must not redirect that peer's traffic to the spoofer.
func TestStaticPeerNotRelearned(t *testing.T) {
	a := listen(t, "a")
	real := listen(t, "m0")
	spoofer := listen(t, "x")
	recReal := &collector{}
	real.SetHandler(recReal)
	if err := a.AddPeer("m0", real.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := spoofer.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}

	// The spoofer claims to be m0.
	spoofed, err := netcore.EncodeFrame("m0", wire.Heartbeat{Nonce: 666}, DefaultMTU)
	if err != nil {
		t.Fatal(err)
	}
	aAddr, _ := net.ResolveUDPAddr("udp", a.Addr())
	if _, err := spoofer.conn.WriteToUDP(spoofed, aAddr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	// a's traffic to m0 must still reach the real m0.
	a.Send("m0", wire.Heartbeat{Nonce: 1})
	waitFor(t, func() bool { return recReal.count() == 1 })
}

// TestSendToKnownPeerDoesNotAllocate: a message to a peer the node has
// already sent to is looked up and queued — no DialFunc is built for a peer
// that will never dial again. The writer goroutine runs during the
// measurement too; its steady state is pinned at zero by netcore's
// TestBatchedSendZeroAllocs. The peer is a socket nobody reads, so
// no read loop or handler contributes.
func TestSendToKnownPeerDoesNotAllocate(t *testing.T) {
	a := listen(t, "a")
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := a.AddPeer("b", sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// Boxed once, as core.Host boxes a round's query.
	var msg wire.Message = wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 1, Trace: 1}
	for i := 0; i < 2000; i++ { // the peer, its queue and the writer's buffers reach steady capacity
		a.Send("b", msg)
	}
	waitFor(t, func() bool { return a.Stats().QueueDepth == 0 })
	if allocs := testing.AllocsPerRun(1000, func() { a.Send("b", msg) }); allocs > 0 {
		t.Errorf("Send to a known peer allocates %.2f objects per message, budget is 0", allocs)
	}
}
