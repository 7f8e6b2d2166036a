// Package tcpnet runs the protocol nodes over real TCP connections. It
// implements core.Env with the system clock and the netcore transport core:
// every peer has a bounded outbound queue drained by a dedicated writer
// goroutine, so Send never blocks or dials on the caller's goroutine, and
// dead peers are redialed with jittered exponential backoff without ever
// delaying traffic to healthy peers (cmd/acnode).
//
// Transport semantics match the paper's network assumption: delivery is not
// guaranteed. Send failures (peer down, queue overflow, connection reset)
// drop the message — counted in Stats — and the protocol's
// retry/retransmission machinery provides liveness.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wanac/internal/core"
	"wanac/internal/netcore"
	"wanac/internal/wire"
)

// maxFrame bounds frame size (1 MiB) in both directions, stopping a
// misbehaving peer from exhausting memory and an oversized outbound message
// from wedging a connection.
const maxFrame = netcore.DefaultMaxFrame

// readBufSize is each connection's read buffer: room for a coalesced flush
// of small frames in one read; larger frames bypass it.
const readBufSize = 16 << 10

// Handler receives messages from the network (same shape as the
// simulator's handler).
type Handler = netcore.Handler

// Node is one TCP endpoint hosting a protocol node.
type Node struct {
	id       wire.NodeID
	listener net.Listener
	cfg      netcore.Config
	group    *netcore.Group

	// handler is read once per inbound frame, so it is not under mu.
	handler atomic.Pointer[Handler]

	netcore.Clock // Now: core.Env's system clock, one read per call

	mu     sync.Mutex
	addrs  map[wire.NodeID]string // address book
	conns  map[net.Conn]struct{}  // every live conn, for shutdown
	closed bool

	wg sync.WaitGroup
}

var _ core.Env = (*Node)(nil)

// Listen starts a node listening on addr ("127.0.0.1:0" picks a free port)
// with default transport tuning.
func Listen(id wire.NodeID, addr string) (*Node, error) {
	return ListenConfig(id, addr, netcore.BuildConfig())
}

// ListenConfig starts a node with explicit transport tuning (queue depth,
// backoff, deadlines — see netcore.Config).
func ListenConfig(id wire.NodeID, addr string, cfg netcore.Config) (*Node, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	n := &Node{
		id:       id,
		listener: l,
		Clock:    netcore.NewClock(),
		addrs:    make(map[wire.NodeID]string),
		conns:    make(map[net.Conn]struct{}),
	}
	// Framing lets the peer writers encode (and coalesce) queued messages
	// themselves: stream frames up to MaxFrame, stamped with our id.
	limit := cfg.MaxFrame
	if limit <= 0 {
		limit = netcore.DefaultMaxFrame
	}
	cfg.Framing = &netcore.Framing{From: id, Stream: true, Limit: limit}
	n.group = netcore.NewGroup(string(id), cfg)
	n.cfg = n.group.Config()
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ID returns the node id.
func (n *Node) ID() wire.NodeID { return n.id }

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// Stats returns a snapshot of the transport's counters, queue depths, and
// peer health.
func (n *Node) Stats() netcore.TransportStats { return n.group.Stats() }

// SetHandler installs the protocol node that receives inbound messages.
// Must be called before peers start sending.
func (n *Node) SetHandler(h Handler) { n.handler.Store(&h) }

// AddPeer registers the address for a node id. Re-pointing an existing peer
// at a new address drops any connection to the old address, so no frame is
// ever written to the stale destination.
func (n *Node) AddPeer(id wire.NodeID, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("tcpnet: empty peer id or address")
	}
	n.mu.Lock()
	old, had := n.addrs[id]
	n.addrs[id] = addr
	n.mu.Unlock()
	if p := n.group.Get(id); p != nil {
		p.SetDial(n.dialFunc(id, addr), had && old != addr)
	}
	return nil
}

// SetTimer implements core.Env with time.AfterFunc.
func (n *Node) SetTimer(d time.Duration, fn func()) core.TimerHandle {
	return time.AfterFunc(d, fn)
}

// Send implements core.Env: best-effort delivery to the named peer. The
// message is queued un-encoded on the peer's writer goroutine — which
// encodes it at flush time, coalescing it with other same-peer messages
// into one frame and one socket write — and this call returns immediately.
// Unknown peers, oversized messages, and queue overflow drop the message
// (unreliable network), counted in Stats.
func (n *Node) Send(to wire.NodeID, msg wire.Message) {
	ctr := n.group.Counters()
	ctr.Sends.Add(1)
	p := n.peer(to)
	if p == nil {
		ctr.Drops.Add(1)
		return
	}
	p.EnqueueMessage(msg)
}

// peer returns the netcore peer for id, creating it if the address book
// knows the address (or an inbound connection registered the id). Returns
// nil for unknown peers.
func (n *Node) peer(id wire.NodeID) *netcore.Peer {
	if p := n.group.Get(id); p != nil {
		return p
	}
	n.mu.Lock()
	addr, ok := n.addrs[id]
	n.mu.Unlock()
	if !ok {
		return nil
	}
	return n.group.Ensure(id, n.dialFunc(id, addr))
}

// dialFunc builds the netcore DialFunc for one peer address: dial with
// timeout, register the connection, start its read loop (responses come
// back on the same connection), and hand netcore a deadline-enforcing
// sender. Runs only on the peer's writer goroutine.
func (n *Node) dialFunc(id wire.NodeID, addr string) netcore.DialFunc {
	return func() (netcore.Sender, error) {
		c, err := n.cfg.Dialer("tcp", addr, n.cfg.DialTimeout)
		if err != nil {
			return nil, err
		}
		if !n.register(c) {
			c.Close()
			return nil, errors.New("tcpnet: node closed")
		}
		s := &connSender{conn: c, timeout: n.cfg.WriteTimeout}
		n.wg.Add(1)
		go n.readLoop(c, s, id)
		return s, nil
	}
}

// register tracks a live connection for shutdown; it refuses connections
// once the node is closed.
func (n *Node) register(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

// connSender writes length-prefixed frames with a per-write deadline.
type connSender struct {
	conn    net.Conn
	timeout time.Duration
}

func (s *connSender) WriteFrame(frame []byte) error {
	if s.timeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	}
	_, err := s.conn.Write(frame)
	return err
}

// WriteBatch writes every frame under one deadline with one writev-backed
// net.Buffers write, so a coalesced flush costs one syscall regardless of
// frame count. net.Buffers consumes fully-written entries from the slice,
// so frames-written is the count that disappeared; a trailing partial
// frame stays in the slice and counts as unwritten (the connection is
// discarded on error, taking the partial bytes with it).
func (s *connSender) WriteBatch(frames net.Buffers) (int, error) {
	total := len(frames)
	if s.timeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	}
	_, err := frames.WriteTo(s.conn)
	return total - len(frames), err
}

func (s *connSender) Close() error { return s.conn.Close() }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.register(c) {
			c.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(c, nil, "")
	}
}

// readLoop decodes frames from one connection. For accepted connections
// (sender == nil) the peer id comes from the frames themselves; the first
// frame offers the connection to that peer for replies. For dialed
// connections the peer id is pinned and mismatching frames kill the
// connection.
func (n *Node) readLoop(c net.Conn, sender netcore.Sender, expect wire.NodeID) {
	defer n.wg.Done()
	adoptedBy := expect
	var adopted netcore.Sender = sender
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		// Detach the dead connection from its peer so the writer redials
		// (or uses a fresher inbound connection) instead of writing into a
		// closed socket.
		if adopted != nil {
			if p := n.group.Get(adoptedBy); p != nil {
				p.Discard(adopted)
			}
		}
	}()
	// One buffered reader per connection: a burst of frames costs one read
	// syscall, and the frame reader behind it reuses one buffer for all.
	r := netcore.NewFrameReader(bufio.NewReaderSize(
		&countingReader{conn: c, bytes: &n.group.Counters().BytesIn}, readBufSize), n.cfg.MaxFrame)
	for {
		if n.cfg.ReadIdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(n.cfg.ReadIdleTimeout))
		}
		from, msgs, err := r.Next()
		if err != nil {
			return
		}
		if expect != "" && from != expect {
			return // peer lied about its identity on a dialed connection
		}
		if adopted == nil {
			// Remember the inbound connection for replies to this peer. The
			// peer keeps it only while it has no live connection of its own.
			s := &connSender{conn: c, timeout: n.cfg.WriteTimeout}
			if p := n.inboundPeer(from); p != nil && p.Adopt(s) {
				adopted, adoptedBy = s, from
			}
		}
		if h := n.handler.Load(); h != nil && *h != nil {
			for _, m := range msgs {
				(*h).HandleMessage(from, m)
			}
		}
	}
}

// countingReader tallies received bytes into the transport's BytesIn
// counter as frames are read off a connection.
type countingReader struct {
	conn  net.Conn
	bytes *atomic.Uint64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.bytes.Add(uint64(n))
	}
	return n, err
}

// inboundPeer returns (creating if necessary) the peer record for an id
// seen on an accepted connection. The peer dials through the address book
// when the id is known there, and is reply-only otherwise.
func (n *Node) inboundPeer(id wire.NodeID) *netcore.Peer {
	if p := n.group.Get(id); p != nil {
		return p
	}
	n.mu.Lock()
	addr, ok := n.addrs[id]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil
	}
	var dial netcore.DialFunc
	if ok {
		dial = n.dialFunc(id, addr)
	}
	return n.group.Ensure(id, dial)
}

// Close shuts the node down: stop accepting, drain outbound queues up to
// the drain deadline, close every connection, and wait for all goroutines.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	err := n.listener.Close()
	// Drain writers first so queued frames get a chance to flush through
	// still-open connections.
	n.group.Close()
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return err
}
