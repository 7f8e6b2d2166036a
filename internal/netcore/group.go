package netcore

import (
	"sync"
	"time"

	"wanac/internal/wire"
)

// Group is the peer set of one transport node: it creates peers on demand,
// aggregates their stats with the shared counters, and closes every peer
// (draining queues) on shutdown.
type Group struct {
	cfg Config
	ctr Counters

	mu     sync.Mutex
	peers  map[wire.NodeID]*Peer
	closed bool
}

// NewGroup creates a peer group for one transport node, named by the first
// argument, which the group does not keep. The config is completed with
// defaults; retrieve the effective values via Config. It panics when
// cfg.Framing is nil: a transport that cannot frame cannot send.
func NewGroup(_ string, cfg Config) *Group {
	if cfg.Framing == nil {
		panic("netcore: config needs a Framing")
	}
	return &Group{cfg: cfg.withDefaults(), peers: make(map[wire.NodeID]*Peer)}
}

// Config returns the group's effective (default-completed) configuration.
func (g *Group) Config() Config { return g.cfg }

// Counters returns the shared counters for the transport's read loops and
// send paths to update.
func (g *Group) Counters() *Counters { return &g.ctr }

// Get returns the peer for id, or nil if none exists.
func (g *Group) Get(id wire.NodeID) *Peer {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peers[id]
}

// Ensure returns the peer for id, creating it (with the given dial
// function) if absent. An existing peer is returned unchanged — use
// Peer.SetDial to re-point it.
func (g *Group) Ensure(id wire.NodeID, dial DialFunc) *Peer {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil
	}
	if p, ok := g.peers[id]; ok {
		return p
	}
	p := newPeer(id, g.cfg, &g.ctr, dial)
	g.peers[id] = p
	return p
}

// Stats returns a snapshot of the counters plus current queue depths and
// peer health states.
func (g *Group) Stats() TransportStats {
	st := g.ctr.snapshot()
	g.mu.Lock()
	if len(g.peers) > 0 {
		st.Peers = make(map[string]string, len(g.peers))
	}
	for id, p := range g.peers {
		depths, state := p.status()
		for ln, d := range depths {
			st.QueueDepth += d
			st.LaneDepths[ln] += d
		}
		st.Peers[string(id)] = state.String()
		switch state {
		case StateUp:
			st.PeersUp++
		case StateConnecting:
			st.PeersConnecting++
		case StateBackoff:
			st.PeersBackoff++
		}
	}
	g.mu.Unlock()
	return st
}

// Close closes every peer, giving their writers until the drain timeout to
// flush queued frames, and waits for them to exit.
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	peers := make([]*Peer, 0, len(g.peers))
	for _, p := range g.peers {
		peers = append(peers, p)
	}
	g.mu.Unlock()

	deadline := time.Now().Add(g.cfg.DrainTimeout)
	for _, p := range peers {
		p.beginClose(deadline)
	}
	for _, p := range peers {
		p.Wait()
	}
}
