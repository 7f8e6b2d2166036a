package netcore_test

// Churn tests: kill and restart a listener mid-traffic and require that
// senders reconnect within the backoff bound, that no message is ever
// dispatched to the wrong handler, and that the whole exercise leaks no
// goroutines. Run against both real transports (tcpnet and udpnet), which
// share the netcore writer/backoff machinery under test here.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanac/internal/netcore"
	"wanac/internal/tcpnet"
	"wanac/internal/udpnet"
	"wanac/internal/wire"
)

// transport is the structural surface shared by tcpnet.Node and
// udpnet.Node that the churn scenario needs.
type transport interface {
	ID() wire.NodeID
	Addr() string
	AddPeer(id wire.NodeID, addr string) error
	SetHandler(h netcore.Handler)
	Stats() netcore.TransportStats
	Send(to wire.NodeID, msg wire.Message)
	Close() error
}

var (
	_ transport = (*tcpnet.Node)(nil)
	_ transport = (*udpnet.Node)(nil)
)

func churnConfig() netcore.Config {
	cfg := netcore.BuildConfig(
		netcore.WithBackoff(10*time.Millisecond, 150*time.Millisecond),
		netcore.WithDialTimeout(250*time.Millisecond),
	)
	cfg.DrainTimeout = 100 * time.Millisecond
	return cfg
}

// tagCollector records deliveries and flags any message not tagged for this
// receiver (a frame dispatched to the wrong handler).
type tagCollector struct {
	want  wire.AppID
	n     atomic.Int64
	wrong atomic.Int64
}

func (c *tagCollector) HandleMessage(from wire.NodeID, msg wire.Message) {
	q, ok := msg.(wire.Query)
	if !ok || q.App != c.want {
		c.wrong.Add(1)
		return
	}
	c.n.Add(1)
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// settleGoroutines waits for the goroutine count to drop to at most limit,
// returning the final count.
func settleGoroutines(limit int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestChurnTCP(t *testing.T) {
	runChurn(t, true, func(id wire.NodeID, addr string) (transport, error) {
		return tcpnet.ListenConfig(id, addr, churnConfig())
	})
}

func TestChurnUDP(t *testing.T) {
	runChurn(t, false, func(id wire.NodeID, addr string) (transport, error) {
		return udpnet.ListenConfig(id, addr, churnConfig())
	})
}

func runChurn(t *testing.T, tcp bool, newNode func(id wire.NodeID, addr string) (transport, error)) {
	baseline := runtime.NumGoroutine()

	h, err := newNode("h0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := newNode("m1", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := newNode("m2", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m1Addr := m1.Addr()
	rec1 := &tagCollector{want: "m1"}
	rec2 := &tagCollector{want: "m2"}
	m1.SetHandler(rec1)
	m2.SetHandler(rec2)
	if err := h.AddPeer("m1", m1Addr); err != nil {
		t.Fatal(err)
	}
	if err := h.AddPeer("m2", m2.Addr()); err != nil {
		t.Fatal(err)
	}

	// Background traffic: tagged queries to both peers, every 2ms, until
	// stopped. The tag lets each receiver detect misrouted frames.
	stop := make(chan struct{})
	var senders sync.WaitGroup
	senders.Add(1)
	go func() {
		defer senders.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.Send("m1", wire.Query{App: "m1", Nonce: seq})
				h.Send("m2", wire.Query{App: "m2", Nonce: seq})
			}
		}
	}()

	if !waitUntil(t, 5*time.Second, func() bool { return rec1.n.Load() >= 5 && rec2.n.Load() >= 5 }) {
		t.Fatal("initial traffic never flowed")
	}

	// Kill m1 mid-traffic; senders keep running and must not stall m2.
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	atM2 := rec2.n.Load()
	time.Sleep(300 * time.Millisecond) // let backoff engage while m1 is down
	if rec2.n.Load() <= atM2 {
		t.Fatal("traffic to the healthy peer stalled while m1 was down")
	}

	// Restart m1 on the same address (bind can need a few tries while the
	// old socket tears down).
	rec1b := &tagCollector{want: "m1"}
	var m1b transport
	for try := 0; ; try++ {
		m1b, err = newNode("m1", m1Addr)
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebind %s: %v", m1Addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	m1b.SetHandler(rec1b)
	restarted := time.Now()

	// Delivery must resume within the reconnect bound: one full backoff
	// period plus a dial, with generous slack for race-detector runs.
	cfg := churnConfig()
	bound := 3*(cfg.BackoffMax+cfg.DialTimeout) + time.Second
	if !waitUntil(t, bound, func() bool { return rec1b.n.Load() >= 5 }) {
		t.Fatalf("delivery did not resume within %v of restart (stats %+v)", bound, h.Stats())
	}
	t.Logf("reconnected in %v", time.Since(restarted))

	close(stop)
	senders.Wait()

	if tcp {
		st := h.Stats()
		if st.DialFailures == 0 {
			t.Errorf("stats = %+v, want dial failures while m1 was down", st)
		}
		if st.Reconnects == 0 {
			t.Errorf("stats = %+v, want a reconnect after restart", st)
		}
	}
	if w := rec1.wrong.Load() + rec1b.wrong.Load() + rec2.wrong.Load(); w != 0 {
		t.Errorf("%d messages reached the wrong handler", w)
	}

	for _, n := range []transport{h, m2, m1b} {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}

	// Everything is closed: writer goroutines, read loops, and accept loops
	// must all have exited.
	limit := baseline + 3
	if n := settleGoroutines(limit); n > limit {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d running, baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
