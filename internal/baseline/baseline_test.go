package baseline

import (
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

const app wire.AppID = "app"

func addOp(user wire.UserID) wire.AdminOp {
	return wire.AdminOp{Op: wire.OpAdd, App: app, User: user, Right: wire.RightUse}
}

func revokeOp(user wire.UserID) wire.AdminOp {
	return wire.AdminOp{Op: wire.OpRevoke, App: app, User: user, Right: wire.RightUse}
}

func newNet() (*simnet.Network, *simnet.Scheduler) {
	s := simnet.NewScheduler()
	return simnet.New(s, simnet.Config{}), s
}

func TestECPropagation(t *testing.T) {
	net, sched := newNet()
	menv := sim.NewEnv("m0", net)
	henv := sim.NewEnv("h0", net)
	mgr := NewECManager("m0", menv, ECConfig{Peers: []wire.NodeID{"h0"}, GossipEvery: time.Second})
	host := NewECHost("h0", henv)
	net.Attach("m0", mgr)
	net.Attach("h0", host)

	mgr.Submit(addOp("alice"))
	sched.RunFor(time.Second)
	if !host.Check(app, "alice", wire.RightUse) {
		t.Fatal("grant did not propagate")
	}
	if host.Check(app, "bob", wire.RightUse) {
		t.Fatal("unknown user allowed")
	}

	mgr.Submit(revokeOp("alice"))
	sched.RunFor(time.Second)
	if host.Check(app, "alice", wire.RightUse) {
		t.Fatal("revoke did not propagate")
	}
}

// TestECUnboundedRevocation demonstrates the property the paper criticizes
// (§4.2): under a partition the eventual-consistency host honors a revoked
// right indefinitely — there is no Te after which access stops.
func TestECUnboundedRevocation(t *testing.T) {
	net, sched := newNet()
	mgr := NewECManager("m0", sim.NewEnv("m0", net), ECConfig{Peers: []wire.NodeID{"h0"}, GossipEvery: time.Second})
	host := NewECHost("h0", sim.NewEnv("h0", net))
	net.Attach("m0", mgr)
	net.Attach("h0", host)

	mgr.Submit(addOp("alice"))
	sched.RunFor(time.Second)
	net.SetLink("m0", "h0", false)
	mgr.Submit(revokeOp("alice"))

	// Hours pass: the host still grants. (The comparable wanac deployment
	// would have expired the right after Te.)
	sched.RunFor(12 * time.Hour)
	if !host.Check(app, "alice", wire.RightUse) {
		t.Fatal("EC host revoked without connectivity — impossible")
	}

	// Availability stays perfect throughout: local checks never block.
	if !host.Check(app, "alice", wire.RightUse) {
		t.Fatal("EC host unavailable")
	}

	net.Heal()
	sched.RunFor(3 * time.Second) // next anti-entropy round
	if host.Check(app, "alice", wire.RightUse) {
		t.Fatal("revoke did not propagate after heal")
	}
}

func TestECLastWriterWins(t *testing.T) {
	net, sched := newNet()
	m0 := NewECManager("m0", sim.NewEnv("m0", net), ECConfig{Peers: []wire.NodeID{"m1", "h0"}, GossipEvery: time.Second})
	m1 := NewECManager("m1", sim.NewEnv("m1", net), ECConfig{Peers: []wire.NodeID{"m0", "h0"}, GossipEvery: time.Second})
	host := NewECHost("h0", sim.NewEnv("h0", net))
	net.Attach("m0", m0)
	net.Attach("m1", m1)
	net.Attach("h0", host)

	// m0 grants at t, m1 revokes strictly later: revoke must win everywhere
	// regardless of gossip arrival order.
	m0.Submit(addOp("alice"))
	sched.RunFor(time.Second)
	m1.Submit(revokeOp("alice"))
	sched.RunFor(5 * time.Second)

	if m0.state.has(app, "alice", wire.RightUse) || m1.state.has(app, "alice", wire.RightUse) {
		t.Error("managers disagree with LWW outcome")
	}
	if host.Check(app, "alice", wire.RightUse) {
		t.Error("host kept the older grant")
	}
}

func TestLWWTieBreak(t *testing.T) {
	s := newLWWState()
	at := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	a := wire.Update{Seq: wire.UpdateSeq{Origin: "m1", Counter: 1}, Op: wire.OpAdd, App: app, User: "u", Right: wire.RightUse, Issued: at}
	b := wire.Update{Seq: wire.UpdateSeq{Origin: "m2", Counter: 1}, Op: wire.OpRevoke, App: app, User: "u", Right: wire.RightUse, Issued: at}
	// Same timestamp: higher origin wins, in either merge order.
	s.merge(a)
	s.merge(b)
	if s.has(app, "u", wire.RightUse) {
		t.Error("tie-break picked lower origin (merge order a,b)")
	}
	s2 := newLWWState()
	s2.merge(b)
	s2.merge(a)
	if s2.has(app, "u", wire.RightUse) {
		t.Error("tie-break not symmetric (merge order b,a)")
	}
	// Invalid rights never merge.
	if s.merge(wire.Update{Op: wire.OpAdd, Right: wire.Right(9)}) {
		t.Error("invalid right merged")
	}
}

func TestECInvokeReply(t *testing.T) {
	net, sched := newNet()
	mgr := NewECManager("m0", sim.NewEnv("m0", net), ECConfig{Peers: []wire.NodeID{"h0"}})
	host := NewECHost("h0", sim.NewEnv("h0", net))
	net.Attach("m0", mgr)
	net.Attach("h0", host)
	mgr.Submit(addOp("alice"))
	sched.RunFor(time.Second)

	var reply wire.InvokeReply
	got := false
	net.Attach("agent", simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if r, ok := msg.(wire.InvokeReply); ok {
			reply, got = r, true
		}
	}))
	net.Send("agent", "h0", wire.Invoke{App: app, User: "alice", ReqID: 7})
	sched.RunFor(time.Second)
	if !got || !reply.Allowed || reply.ReqID != 7 {
		t.Fatalf("reply = %+v got=%v", reply, got)
	}
	net.Send("agent", "h0", wire.Invoke{App: app, User: "mallory", ReqID: 8})
	got = false
	sched.RunFor(time.Second)
	if !got || reply.Allowed {
		t.Fatalf("mallory reply = %+v", reply)
	}
}

// Interface conformance for the handler shape used by the simulator.
var (
	_ simnet.Handler = (*ECManager)(nil)
	_ simnet.Handler = (*ECHost)(nil)
	_ core.Env       = (*sim.Env)(nil)
)

func TestLWWSnapshotSorted(t *testing.T) {
	s := newLWWState()
	at := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	s.merge(wire.Update{Seq: wire.UpdateSeq{Origin: "m", Counter: 1}, Op: wire.OpAdd, App: "b", User: "z", Right: wire.RightUse, Issued: at})
	s.merge(wire.Update{Seq: wire.UpdateSeq{Origin: "m", Counter: 2}, Op: wire.OpAdd, App: "a", User: "y", Right: wire.RightManage, Issued: at})
	s.merge(wire.Update{Seq: wire.UpdateSeq{Origin: "m", Counter: 3}, Op: wire.OpAdd, App: "a", User: "y", Right: wire.RightUse, Issued: at})
	snap := s.snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].App != "a" || snap[0].Right != wire.RightUse || snap[2].App != "b" {
		t.Errorf("snapshot order: %+v", snap)
	}
}
