// Package baseline implements the design the paper measures itself
// against, so the evaluation can compare them on the same simulated
// network: eventual consistency (§4.2, Samarati et al. [23]). Every replica
// holds the full ACL; updates spread by last-writer-wins gossip; checks are
// always local (perfect availability) but revocation has NO time bound
// under partitions. Types: ECManager, ECHost.
//
// The paper's other §3 alternatives, full replication (option 1) and
// local-only updates (option 3), are argued away in its prose and back no
// number here. A centralized design is the degenerate M=1 case of the main
// protocol, built with core.NewManager/NewHost directly.
//
// Both node types implement the same simnet handler shape as the core nodes
// and run under the same Env abstraction.
package baseline

import (
	"sort"
	"time"

	"wanac/internal/core"
	"wanac/internal/wire"
)

// opKey identifies the ACL fact an operation is about.
type opKey struct {
	app   wire.AppID
	user  wire.UserID
	right wire.Right
}

// lwwState is a compacted operation log: the latest operation per key,
// ordered by Issued timestamp with (origin, counter) as tie-breaker. It is
// the replica state of the eventual-consistency baseline.
type lwwState struct {
	ops map[opKey]wire.Update
}

func newLWWState() *lwwState {
	return &lwwState{ops: make(map[opKey]wire.Update)}
}

// newer reports whether a should supersede b.
func newer(a, b wire.Update) bool {
	if !a.Issued.Equal(b.Issued) {
		return a.Issued.After(b.Issued)
	}
	if a.Seq.Origin != b.Seq.Origin {
		return a.Seq.Origin > b.Seq.Origin
	}
	return a.Seq.Counter > b.Seq.Counter
}

// merge incorporates an operation, returning true if state changed.
func (s *lwwState) merge(op wire.Update) bool {
	if !op.Right.Valid() {
		return false
	}
	k := opKey{op.App, op.User, op.Right}
	cur, ok := s.ops[k]
	if ok && !newer(op, cur) {
		return false
	}
	s.ops[k] = op
	return true
}

// has reports whether the latest operation for the key is an Add.
func (s *lwwState) has(app wire.AppID, user wire.UserID, right wire.Right) bool {
	op, ok := s.ops[opKey{app, user, right}]
	return ok && op.Op == wire.OpAdd
}

// snapshot returns all operations sorted deterministically.
func (s *lwwState) snapshot() []wire.Update {
	out := make([]wire.Update, 0, len(s.ops))
	for _, op := range s.ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Right < b.Right
	})
	return out
}

// ECConfig configures the eventual-consistency replicas.
type ECConfig struct {
	// Peers are the other replicas (managers and hosts) to gossip with.
	Peers []wire.NodeID
	// GossipEvery is the anti-entropy interval. Zero disables periodic
	// gossip (state still spreads on each local update).
	GossipEvery time.Duration
}

// ECManager is an eventual-consistency replica that accepts updates.
type ECManager struct {
	id      wire.NodeID
	env     core.Env
	cfg     ECConfig
	state   *lwwState
	counter uint64
}

// NewECManager creates an eventual-consistency manager replica and starts
// its anti-entropy loop.
func NewECManager(id wire.NodeID, env core.Env, cfg ECConfig) *ECManager {
	m := &ECManager{id: id, env: env, cfg: cfg, state: newLWWState()}
	if cfg.GossipEvery > 0 {
		m.scheduleGossip()
	}
	return m
}

// Submit applies an operation locally and propagates it opportunistically.
// There is no quorum and no guarantee: consistency is eventual (§4.2: "no
// guarantees are made on when the information will be updated").
func (m *ECManager) Submit(op wire.AdminOp) {
	m.counter++
	upd := wire.Update{
		Seq:    wire.UpdateSeq{Origin: m.id, Counter: m.counter},
		Op:     op.Op,
		App:    op.App,
		User:   op.User,
		Right:  op.Right,
		Issued: m.env.Now(),
	}
	m.state.merge(upd)
	m.gossipNow()
}

func (m *ECManager) gossipNow() {
	msg := wire.Gossip{Ops: m.state.snapshot()}
	for _, p := range m.cfg.Peers {
		m.env.Send(p, msg)
	}
}

func (m *ECManager) scheduleGossip() {
	m.env.SetTimer(m.cfg.GossipEvery, func() {
		m.gossipNow()
		m.scheduleGossip()
	})
}

// HandleMessage merges incoming gossip.
func (m *ECManager) HandleMessage(_ wire.NodeID, msg wire.Message) {
	if g, ok := msg.(wire.Gossip); ok {
		for _, op := range g.Ops {
			m.state.merge(op)
		}
	}
}

// ECHost is an eventual-consistency replica serving access checks from its
// local replica: always available, never waiting on the network.
type ECHost struct {
	id    wire.NodeID
	env   core.Env
	state *lwwState
}

// NewECHost creates a host replica.
func NewECHost(id wire.NodeID, env core.Env) *ECHost {
	return &ECHost{id: id, env: env, state: newLWWState()}
}

// Check is a purely local decision: the availability of this baseline is 1
// by construction, which is exactly why its revocations are unbounded.
func (h *ECHost) Check(app wire.AppID, user wire.UserID, right wire.Right) bool {
	return h.state.has(app, user, right)
}

// HandleMessage merges gossip and answers Invoke traffic locally.
func (h *ECHost) HandleMessage(from wire.NodeID, msg wire.Message) {
	switch m := msg.(type) {
	case wire.Gossip:
		for _, op := range m.Ops {
			h.state.merge(op)
		}
	case wire.Invoke:
		allowed := h.Check(m.App, m.User, wire.RightUse)
		h.env.Send(from, wire.InvokeReply{App: m.App, ReqID: m.ReqID, Allowed: allowed})
	}
}
