package tcpnet

import (
	"errors"
	"net"
	"runtime"
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

func (c *collector) last() wire.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[len(c.got)-1]
}

// fastConfig keeps retry/drain waits short so tests close quickly.
func fastConfig() netcore.Config {
	cfg := netcore.BuildConfig(
		netcore.WithBackoff(10*time.Millisecond, 100*time.Millisecond),
		netcore.WithDialTimeout(500*time.Millisecond),
	)
	cfg.DrainTimeout = 100 * time.Millisecond
	return cfg
}

func listen(t *testing.T, id wire.NodeID) *Node {
	t.Helper()
	n, err := ListenConfig(id, "127.0.0.1:0", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func addPeer(t *testing.T, n *Node, id wire.NodeID, addr string) {
	t.Helper()
	if err := n.AddPeer(id, addr); err != nil {
		t.Fatal(err)
	}
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
	a := listen(t, "a")
	b := listen(t, "b")
	rec := &collector{}
	b.SetHandler(rec)
	addPeer(t, a, "b", b.Addr())

	a.Send("b", wire.Heartbeat{Nonce: 42})
	waitFor(t, func() bool { return rec.count() == 1 })
	env := rec.last()
	if env.From != "a" {
		t.Errorf("from = %q", env.From)
	}
	if hb, ok := env.Msg.(wire.Heartbeat); !ok || hb.Nonce != 42 {
		t.Errorf("msg = %#v", env.Msg)
	}
	waitFor(t, func() bool { return a.Stats().BytesOut > 0 })
	st := a.Stats()
	if st.Sends != 1 || st.Drops != 0 || st.Dials != 1 || st.PeersUp != 1 {
		t.Errorf("sender stats = %+v", st)
	}
	if bst := b.Stats(); bst.BytesIn == 0 {
		t.Errorf("receiver stats = %+v", bst)
	}
}

func TestReplyOverInboundConnection(t *testing.T) {
	a := listen(t, "a")
	b := listen(t, "b")
	recA := &collector{}
	a.SetHandler(recA)
	// b never learns a's address: it replies over the inbound connection.
	b.SetHandler(HandlerFunc(func(from wire.NodeID, msg wire.Message) {
		if hb, ok := msg.(wire.Heartbeat); ok {
			b.Send(from, wire.HeartbeatAck{Nonce: hb.Nonce})
		}
	}))
	addPeer(t, a, "b", b.Addr())
	a.Send("b", wire.Heartbeat{Nonce: 7})
	waitFor(t, func() bool { return recA.count() == 1 })
	if ack, ok := recA.last().Msg.(wire.HeartbeatAck); !ok || ack.Nonce != 7 {
		t.Errorf("reply = %#v", recA.last().Msg)
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	a := listen(t, "a")
	a.Send("ghost", wire.Heartbeat{}) // must not panic or block
	st := a.Stats()
	if st.Sends != 1 || st.Drops != 1 {
		t.Errorf("stats = %+v, want sends=1 drops=1", st)
	}
}

func TestSendAfterPeerClosedDrops(t *testing.T) {
	a := listen(t, "a")
	b := listen(t, "b")
	addPeer(t, a, "b", b.Addr())
	a.Send("b", wire.Heartbeat{Nonce: 1})
	b.Close()
	time.Sleep(20 * time.Millisecond)
	// Both sends must be safe: first may hit the dead cached conn, second
	// fails to redial.
	a.Send("b", wire.Heartbeat{Nonce: 2})
	a.Send("b", wire.Heartbeat{Nonce: 3})
}

// TestSlowPeerDialDoesNotBlockHealthySends is the regression test for the
// old transport's worst production hazard: Send used to dial on the
// caller's goroutine, so one blackholed peer (dial hangs until timeout)
// stalled the Host's entire check path. With per-peer writer goroutines the
// send to the healthy peer must be delivered while the blackholed dial is
// still hanging.
func TestSlowPeerDialDoesNotBlockHealthySends(t *testing.T) {
	const deadAddr = "192.0.2.1:9" // TEST-NET-1: never dialed, dialer intercepts
	unblock := make(chan struct{})
	cfg := fastConfig()
	cfg.Dialer = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if addr == deadAddr {
			<-unblock // a blackholed route: the dial just hangs
			return nil, errors.New("blackholed")
		}
		return net.DialTimeout(network, addr, timeout)
	}
	a, err := ListenConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the hung dial before Close waits for the writer goroutines.
	t.Cleanup(func() { a.Close() })
	t.Cleanup(func() { close(unblock) })

	b := listen(t, "b")
	rec := &collector{}
	b.SetHandler(rec)
	addPeer(t, a, "dead", deadAddr)
	addPeer(t, a, "b", b.Addr())

	a.Send("dead", wire.Heartbeat{Nonce: 1}) // writer for "dead" hangs in dial
	start := time.Now()
	a.Send("b", wire.Heartbeat{Nonce: 2})
	waitFor(t, func() bool { return rec.count() == 1 })
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("healthy send took %v while dead peer was dialing", el)
	}
	if st := a.Stats(); st.PeersConnecting != 1 {
		t.Errorf("stats = %+v, want the dead peer still connecting", st)
	}
}

// TestOutboundMaxFrameEnforced: an oversized message is dropped at the
// sender — never written to the peer — and counted.
func TestOutboundMaxFrameEnforced(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxFrame = 1024
	a, err := ListenConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b := listen(t, "b")
	rec := &collector{}
	b.SetHandler(rec)
	addPeer(t, a, "b", b.Addr())

	a.Send("b", wire.Invoke{App: "x", User: "u", Payload: make([]byte, 4096)})
	if st := a.Stats(); st.Drops != 1 {
		t.Errorf("stats = %+v, want the oversized frame dropped", st)
	}
	a.Send("b", wire.Heartbeat{Nonce: 5})
	waitFor(t, func() bool { return rec.count() == 1 })
	if hb, ok := rec.last().Msg.(wire.Heartbeat); !ok || hb.Nonce != 5 {
		t.Errorf("msg = %#v (oversized frame must not corrupt the stream)", rec.last().Msg)
	}
}

// TestAddPeerRepointDropsStaleConnection: re-pointing an id at a new
// address must stop writing to the old destination immediately.
func TestAddPeerRepointDropsStaleConnection(t *testing.T) {
	a := listen(t, "a")
	oldB := listen(t, "b")
	newB := listen(t, "b")
	oldRec, newRec := &collector{}, &collector{}
	oldB.SetHandler(oldRec)
	newB.SetHandler(newRec)

	addPeer(t, a, "b", oldB.Addr())
	a.Send("b", wire.Heartbeat{Nonce: 1})
	waitFor(t, func() bool { return oldRec.count() == 1 })

	addPeer(t, a, "b", newB.Addr())
	a.Send("b", wire.Heartbeat{Nonce: 2})
	a.Send("b", wire.Heartbeat{Nonce: 3})
	waitFor(t, func() bool { return newRec.count() == 2 })
	if oldRec.count() != 1 {
		t.Errorf("old destination received %d messages after re-point, want 1", oldRec.count())
	}

	// Re-adding the same address must not drop the connection.
	dials := a.Stats().Dials
	addPeer(t, a, "b", newB.Addr())
	a.Send("b", wire.Heartbeat{Nonce: 4})
	waitFor(t, func() bool { return newRec.count() == 3 })
	if got := a.Stats().Dials; got != dials {
		t.Errorf("dials went %d -> %d after no-op AddPeer, want unchanged", dials, got)
	}
}

// TestProtocolOverTCP runs the full access-control protocol across real
// sockets: three managers, one host, grant + check + revoke.
func TestProtocolOverTCP(t *testing.T) {
	const app wire.AppID = "stocks"

	mgrNodes := make([]*Node, 3)
	mgrIDs := make([]wire.NodeID, 3)
	for i := range mgrNodes {
		mgrIDs[i] = wire.NodeID([]string{"m0", "m1", "m2"}[i])
		mgrNodes[i] = listen(t, mgrIDs[i])
	}
	hostNode := listen(t, "h0")

	// Everyone knows everyone's address.
	all := append([]*Node{hostNode}, mgrNodes...)
	for _, n := range all {
		for _, p := range all {
			if p != n {
				addPeer(t, n, p.ID(), p.Addr())
			}
		}
	}

	managers := make([]*core.Manager, 3)
	for i, node := range mgrNodes {
		managers[i] = core.NewManager(node.ID(), node, nil, nil)
		if err := managers[i].AddApp(app, core.ManagerAppConfig{
			Peers:       mgrIDs,
			CheckQuorum: 2,
			Te:          5 * time.Second,
			UpdateRetry: 100 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		managers[i].Seed(app, "root", wire.RightManage)
		managers[i].Seed(app, "alice", wire.RightUse)
		node.SetHandler(managers[i])
	}

	host := core.NewHost("h0", hostNode, nil, nil)
	if err := host.RegisterApp(app, core.HostAppConfig{
		Managers: mgrIDs,
		Policy: core.Policy{
			CheckQuorum: 2, Te: 5 * time.Second,
			QueryTimeout: 300 * time.Millisecond, MaxAttempts: 3,
		},
	}); err != nil {
		t.Fatal(err)
	}
	hostNode.SetHandler(host)

	// Check over real TCP.
	decCh := make(chan core.Decision, 1)
	host.Check(app, "alice", wire.RightUse, func(d core.Decision) { decCh <- d })
	select {
	case d := <-decCh:
		if !d.Allowed || d.Confirmations < 2 {
			t.Fatalf("decision = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("check timed out")
	}

	// Revoke via manager 0; the notice must flush the host cache.
	replyCh := make(chan wire.AdminReply, 1)
	managers[0].Submit(wire.AdminOp{
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

	waitFor(t, func() bool { return host.Stats().CacheLen == 0 })

	host.Check(app, "alice", wire.RightUse, func(d core.Decision) { decCh <- d })
	select {
	case d := <-decCh:
		if d.Allowed {
			t.Fatalf("post-revoke decision = %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-revoke check timed out")
	}
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from wire.NodeID, msg wire.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from wire.NodeID, msg wire.Message) { f(from, msg) }

func TestCloseIdempotent(t *testing.T) {
	n := listen(t, "x")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// dialRaw opens a bare TCP connection to n: the tests below write frames a
// well-behaved peer never would.
func dialRaw(t *testing.T, n *Node) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// closedByPeer reports whether the node has closed c: a read returns an
// error other than the deadline passing.
func closedByPeer(c net.Conn, wait time.Duration) bool {
	c.SetReadDeadline(time.Now().Add(wait))
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// TestMaxSizeFramesReuseReadBuffer: a connection pays for its largest frame
// once. N frames of exactly MaxFrame bytes cost their N decoded payloads
// (an Invoke's payload is a copy, never a view of the read buffer) plus one
// read buffer — not a second MaxFrame allocation per frame.
func TestMaxSizeFramesReuseReadBuffer(t *testing.T) {
	const frames = 16
	n := listen(t, "m0")
	var got collector
	n.SetHandler(&got)
	msg := wire.Invoke{App: "a", User: "u", ReqID: 1}
	small, err := netcore.EncodeStreamFrame("hx", msg, netcore.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	// Growing the payload from 0 to k bytes adds k plus two more length-prefix bytes.
	msg.Payload = make([]byte, netcore.DefaultMaxFrame-(len(small)-4)-2)
	frame, err := netcore.EncodeStreamFrame("hx", msg, netcore.DefaultMaxFrame)
	if err != nil || len(frame)-4 != netcore.DefaultMaxFrame {
		t.Fatalf("frame payload is %d bytes (err %v), want exactly %d", len(frame)-4, err, netcore.DefaultMaxFrame)
	}
	c := dialRaw(t, n)
	before := totalAlloc()
	for i := 0; i < frames; i++ {
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.count() == frames })
	spent := totalAlloc() - before
	if limit := uint64(frames*netcore.DefaultMaxFrame) * 3 / 2; spent > limit {
		t.Errorf("%d max-size frames allocated %d MiB, want < %d MiB (payload copies + one buffer)",
			frames, spent>>20, limit>>20)
	}
}

// TestStalledMaxFrameHeaderCostsOneConnection: four bytes claiming a
// MaxFrame body that never arrives cost that connection one buffer growth
// and, at ReadIdleTimeout, the connection — while the node keeps serving its
// other peers. Sizes outside (0, MaxFrame] kill the connection at once.
func TestStalledMaxFrameHeaderCostsOneConnection(t *testing.T) {
	cfg := fastConfig()
	cfg.ReadIdleTimeout = 300 * time.Millisecond
	n, err := ListenConfig("m0", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	var got collector
	n.SetHandler(&got)

	stalled, healthy := dialRaw(t, n), dialRaw(t, n)
	ping, err := netcore.EncodeStreamFrame("h1", wire.Heartbeat{Nonce: 1}, netcore.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	// The healthy peer keeps talking (so its own idle timer never runs out)
	// for as long as the stalled one is being waited on.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := healthy.Write(ping); err != nil {
				t.Errorf("healthy connection: %v", err)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	before := totalAlloc()
	if _, err := stalled.Write([]byte{0x00, 0x10, 0x00, 0x00}); err != nil { // size = 1 MiB = MaxFrame
		t.Fatal(err)
	}
	if !closedByPeer(stalled, 5*time.Second) {
		t.Error("stalled connection still open after ReadIdleTimeout")
	}
	if spent := totalAlloc() - before; spent > 2*netcore.DefaultMaxFrame {
		t.Errorf("a stalled MaxFrame header cost %d KiB, want one growth (< %d KiB)", spent>>10, 2*netcore.DefaultMaxFrame>>10)
	}
	served := got.count()
	waitFor(t, func() bool { return got.count() > served })
	close(stop)
	<-done

	for _, hdr := range [][]byte{{0, 0, 0, 0}, {0x00, 0x10, 0x00, 0x01}, {0xFF, 0xFF, 0xFF, 0xFF}} {
		c := dialRaw(t, n)
		if _, err := c.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if !closedByPeer(c, 250*time.Millisecond) { // well inside ReadIdleTimeout
			t.Errorf("header % x: connection survived a size outside (0, MaxFrame]", hdr)
		}
	}
}
