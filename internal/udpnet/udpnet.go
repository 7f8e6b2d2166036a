// Package udpnet runs the protocol nodes over UDP — the transport that most
// literally matches the paper's network model: unreliable, unordered,
// connectionless point-to-point datagrams (§2.2). Nothing is retransmitted
// at this layer; the protocol's own retry/retransmission machinery provides
// liveness, exactly as designed.
//
// The outbound path runs on the netcore transport core: each peer has a
// bounded drop-oldest queue drained by a dedicated writer goroutine, so
// Send never blocks on the socket and a burst to one peer cannot stall the
// protocol goroutine. Each datagram carries one netcore frame:
// uvarint-length sender id, then the binary-marshaled message. Frames
// larger than the configured MTU are dropped on send (the protocol's
// messages are all far below 1 KiB except pathological sync transfers;
// those deployments should use tcpnet).
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"wanac/internal/core"
	"wanac/internal/netcore"
	"wanac/internal/wire"
)

// DefaultMTU bounds datagram payloads. 8 KiB keeps well under typical
// loopback/jumbo limits while fitting every protocol message.
const DefaultMTU = 8 << 10

// Handler receives messages from the network.
type Handler = netcore.Handler

// Node is one UDP endpoint hosting a protocol node.
type Node struct {
	id    wire.NodeID
	conn  *net.UDPConn
	mtu   int
	group *netcore.Group

	netcore.Clock // Now: core.Env's system clock, one read per call

	mu      sync.Mutex
	peers   map[wire.NodeID]*net.UDPAddr
	static  map[wire.NodeID]bool // explicitly configured; never auto-relearned
	handler Handler
	closed  bool

	done chan struct{}
}

var _ core.Env = (*Node)(nil)

// Listen binds a UDP socket ("127.0.0.1:0" picks a free port) with default
// transport tuning.
func Listen(id wire.NodeID, addr string) (*Node, error) {
	return ListenConfig(id, addr, netcore.BuildConfig())
}

// ListenConfig binds a UDP socket with explicit transport tuning (queue
// depth, stats publishing — see netcore.Config; dial and stream deadlines
// do not apply to datagrams).
func ListenConfig(id wire.NodeID, addr string, cfg netcore.Config) (*Node, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet resolve: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udpnet listen: %w", err)
	}
	// Deep kernel buffers ride out bursts: a coalesced flush can land dozens
	// of packed datagrams faster than the read loop wakes, and the default
	// socket buffer (often 208 KiB) overflows silently. Best effort — some
	// platforms clamp the size, and the protocol tolerates the loss.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	n := &Node{
		id:     id,
		conn:   conn,
		mtu:    DefaultMTU,
		Clock:  netcore.NewClock(),
		peers:  make(map[wire.NodeID]*net.UDPAddr),
		static: make(map[wire.NodeID]bool),
		done:   make(chan struct{}),
	}
	// Framing lets the peer writers encode (and coalesce) queued messages
	// themselves: raw datagram payloads bounded by min(MaxFrame, MTU).
	limit := cfg.MaxFrame
	if limit <= 0 {
		limit = netcore.DefaultMaxFrame
	}
	if n.mtu < limit {
		limit = n.mtu
	}
	cfg.Framing = &netcore.Framing{From: id, Stream: false, Limit: limit}
	n.group = netcore.NewGroup(string(id), cfg)
	go n.readLoop()
	return n, nil
}

// ID returns the node id.
func (n *Node) ID() wire.NodeID { return n.id }

// Addr returns the bound address.
func (n *Node) Addr() string { return n.conn.LocalAddr().String() }

// Stats returns a snapshot of the transport's counters, queue depths, and
// peer states.
func (n *Node) Stats() netcore.TransportStats { return n.group.Stats() }

// SetHandler installs the protocol node receiving inbound messages.
func (n *Node) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// AddPeer registers a peer's address. Re-pointing an existing peer at a new
// address takes effect on the next queued frame (datagrams have no
// connection to drop) and clears any backoff.
func (n *Node) AddPeer(id wire.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet peer %s: %w", id, err)
	}
	n.mu.Lock()
	n.peers[id] = ua
	n.static[id] = true
	n.mu.Unlock()
	if p := n.group.Get(id); p != nil {
		p.ClearBackoff()
	}
	return nil
}

// SetTimer implements core.Env.
func (n *Node) SetTimer(d time.Duration, fn func()) core.TimerHandle {
	return time.AfterFunc(d, fn)
}

// Send implements core.Env: fire-and-forget datagram, queued on the peer's
// writer goroutine. Unknown peers, oversized frames, queue overflow, and
// socket errors all drop the message — UDP semantics, which the protocol is
// built to tolerate — counted in Stats.
func (n *Node) Send(to wire.NodeID, msg wire.Message) {
	ctr := n.group.Counters()
	ctr.Sends.Add(1)
	// Pre-validate with the exact size so callers still see oversized and
	// unmarshalable messages dropped at send time; the writer goroutine
	// encodes (and coalesces) at flush time.
	size, err := wire.Size(msg)
	if err != nil || netcore.FrameOverhead(n.id)+size > n.group.Config().Framing.Limit {
		ctr.Drops.Add(1)
		return
	}
	p := n.group.Get(to)
	if p == nil {
		// First message to this peer: only now is a DialFunc worth building.
		if p = n.group.Ensure(to, n.dialFunc(to)); p == nil {
			ctr.Drops.Add(1) // node closed
			return
		}
	}
	p.EnqueueMessage(msg)
}

// dialFunc builds the netcore DialFunc for a peer: datagrams need no
// connection, so "dialing" just verifies an address is known (failing into
// backoff when it is not, which rate-limits sends to unknown peers).
func (n *Node) dialFunc(id wire.NodeID) netcore.DialFunc {
	return func() (netcore.Sender, error) {
		if n.lookupAddr(id) == nil {
			return nil, fmt.Errorf("udpnet: unknown peer %s", id)
		}
		return &udpSender{node: n, id: id}, nil
	}
}

func (n *Node) lookupAddr(id wire.NodeID) *net.UDPAddr {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// udpSender writes frames to the peer's current address, re-resolved from
// the address book on every write so learned peers follow rebinds. The
// pack buffer is reused across WriteBatch calls; a sender belongs to one
// peer's writer goroutine, so it needs no locking.
type udpSender struct {
	node *Node
	id   wire.NodeID
	pack []byte
}

func (s *udpSender) WriteFrame(frame []byte) error {
	addr := s.node.lookupAddr(s.id)
	if addr == nil {
		return errors.New("udpnet: peer address lost")
	}
	_, err := s.node.conn.WriteToUDP(frame, addr)
	return err
}

// WriteBatch packs consecutive payloads into shared datagrams up to the
// MTU: a packed datagram is the PackedMarker byte followed by uvarint-
// length-prefixed payloads, so a coalesced flush costs one sendto per MTU's
// worth of frames instead of one per frame. A payload that would share
// with nothing falls back to a raw single datagram (identical bytes to the
// unbatched path). Datagrams are all-or-nothing, so the returned count is
// exact on error.
func (s *udpSender) WriteBatch(frames net.Buffers) (int, error) {
	addr := s.node.lookupAddr(s.id)
	if addr == nil {
		return 0, errors.New("udpnet: peer address lost")
	}
	written := 0
	for written < len(frames) {
		group := 1
		size := 1 + netcore.PackedSize(len(frames[written]))
		for written+group < len(frames) {
			next := size + netcore.PackedSize(len(frames[written+group]))
			if next > s.node.mtu {
				break
			}
			size = next
			group++
		}
		if group == 1 {
			if _, err := s.node.conn.WriteToUDP(frames[written], addr); err != nil {
				return written, err
			}
			written++
			continue
		}
		pack := append(s.pack[:0], netcore.PackedMarker)
		for _, f := range frames[written : written+group] {
			pack = binary.AppendUvarint(pack, uint64(len(f)))
			pack = append(pack, f...)
		}
		s.pack = pack
		if _, err := s.node.conn.WriteToUDP(pack, addr); err != nil {
			return written, err
		}
		written += group
	}
	return written, nil
}

func (s *udpSender) Close() error { return nil }

// readLoop dispatches inbound datagrams until the socket closes. The
// sender's claimed id routes replies through the address book; ids without
// a statically configured address are learned (and relearned) from each
// datagram's source address.
func (n *Node) readLoop() {
	defer close(n.done)
	buf := make([]byte, 64<<10)
	var parts [][]byte
	var dec netcore.FrameDecoder
	ctr := n.group.Counters()
	for {
		size, src, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		ctr.BytesIn.Add(uint64(size))
		// A datagram is either one raw frame or — when the sender's writer
		// coalesced a flush — several frames packed behind PackedMarker.
		parts, err = netcore.SplitDatagram(buf[:size], parts[:0])
		if err != nil {
			continue // malformed datagram: drop
		}
		for _, part := range parts {
			from, msg, err := dec.Decode(part)
			if err != nil {
				continue // malformed frame: drop
			}
			n.mu.Lock()
			h := n.handler
			learned := false
			if !n.closed && !n.static[from] {
				// For ids without a configured address, track the latest
				// observed source so replies follow peers across rebinds
				// (mobile hosts, restarted tools). Statically configured peers
				// are never relearned, so a spoofed datagram cannot redirect
				// manager traffic. Address learning is otherwise
				// unauthenticated, like UDP itself; deployments needing sender
				// authenticity must layer auth.Seal.
				if old := n.peers[from]; old == nil || !old.IP.Equal(src.IP) || old.Port != src.Port {
					cp := *src
					n.peers[from] = &cp
					learned = true
				}
			}
			n.mu.Unlock()
			if learned {
				// A fresh address makes the peer deliverable again; let its
				// writer retry immediately instead of waiting out a backoff.
				if p := n.group.Get(from); p != nil {
					p.ClearBackoff()
				}
			}
			if h != nil {
				// Deliver unwraps coalesced wire.Batch frames so the handler
				// only ever sees protocol messages, in send order.
				netcore.Deliver(h, from, msg)
			}
		}
	}
}

// Close drains outbound queues up to the drain deadline, shuts the socket,
// and waits for the read loop.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.group.Close()
	err := n.conn.Close()
	<-n.done
	return err
}
