package sim

import (
	"fmt"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/nameservice"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// TestManagerSetReconfiguration exercises §3.2's manager-set change path:
// a new manager joins Managers(A); the managers are reconfigured with
// SetPeers, the name service is updated, and hosts pick up the new set
// after their TTL expires. The enlarged set then satisfies a quorum the old
// set could not.
func TestManagerSetReconfiguration(t *testing.T) {
	const app wire.AppID = "app"
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})

	newMgr := func(i int, peers []wire.NodeID) *core.Manager {
		id := wire.NodeID(fmt.Sprintf("m%d", i))
		mgr := core.NewManager(id, NewEnv(id, net), nil, nil)
		if err := mgr.AddApp(app, core.ManagerAppConfig{
			Peers: peers, CheckQuorum: 2, Te: time.Minute, UpdateRetry: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		mgr.Seed(app, "admin", wire.RightManage)
		mgr.Seed(app, "alice", wire.RightUse)
		net.Attach(id, mgr)
		return mgr
	}

	oldSet := []wire.NodeID{"m0", "m1"}
	m0 := newMgr(0, oldSet)
	m1 := newMgr(1, oldSet)

	ns := nameservice.New("ns", NewEnv("ns", net))
	ns.SetManagers(app, oldSet, 10*time.Second)
	net.Attach("ns", ns)

	host := core.NewHost("h0", NewEnv("h0", net), nil, nil)
	if err := host.RegisterApp(app, core.HostAppConfig{
		NameService: "ns",
		Policy:      core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	net.Attach("h0", host)

	checkSync := func(user wire.UserID) core.Decision {
		var d core.Decision
		done := false
		host.Check(app, user, wire.RightUse, func(dd core.Decision) { d, done = dd, true })
		limit := sched.Now().Add(time.Minute)
		for !done && sched.Pending() > 0 && sched.Now().Before(limit) {
			sched.Step()
		}
		return d
	}

	if d := checkSync("alice"); !d.Allowed {
		t.Fatalf("pre-reconfig check: %+v", d)
	}

	// m1 crashes permanently. With M=2, C=2 a fresh check cannot assemble a
	// quorum anymore.
	net.Crash("m1")
	_ = m1
	host.Reset()
	if d := checkSync("alice"); d.Allowed {
		t.Fatalf("quorum satisfied with a crashed manager: %+v", d)
	}

	// Reconfiguration: m2 joins (synced out of band: same seeds), both
	// surviving managers adopt the new set, the name service is updated.
	newSet := []wire.NodeID{"m0", "m2"}
	m2 := newMgr(2, newSet)
	_ = m2
	if err := m0.SetPeers(app, newSet); err != nil {
		t.Fatal(err)
	}
	ns.SetManagers(app, newSet, 10*time.Second)

	// Before the host's TTL expires it may still try the stale set; after
	// the TTL it re-resolves and succeeds.
	sched.RunFor(11 * time.Second)
	host.Reset()
	if d := checkSync("alice"); !d.Allowed {
		t.Fatalf("post-reconfig check failed: %+v", d)
	}

	// Updates issued on the new set reach quorum (M=2, C=2 -> update quorum
	// 1... use revoke and verify both new members converge).
	var reply wire.AdminReply
	done := false
	m0.Submit(wire.AdminOp{Op: wire.OpRevoke, App: app, User: "alice", Right: wire.RightUse, Issuer: "admin"},
		func(r wire.AdminReply) { reply, done = r, true })
	for !done && sched.Pending() > 0 {
		sched.Step()
	}
	if !reply.QuorumReached {
		t.Fatalf("post-reconfig revoke: %+v", reply)
	}
	sched.RunFor(5 * time.Second)
	if m2.Has(app, "alice", wire.RightUse) {
		t.Error("new member did not apply the revoke")
	}
}

func TestSetPeersValidation(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	mgr := core.NewManager("m0", NewEnv("m0", net), nil, nil)
	if err := mgr.AddApp("a", core.ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1", "m2"}, CheckQuorum: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetPeers("ghost", []wire.NodeID{"m0"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := mgr.SetPeers("a", []wire.NodeID{"m1", "m2"}); err == nil {
		t.Error("peer set without self accepted")
	}
	if err := mgr.SetPeers("a", []wire.NodeID{"m0"}); err == nil {
		t.Error("peer set smaller than C accepted")
	}
	if err := mgr.SetPeers("a", []wire.NodeID{"m0", "m3"}); err != nil {
		t.Errorf("valid reconfig rejected: %v", err)
	}
}

func TestHostSetManagers(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	host := core.NewHost("h0", NewEnv("h0", net), nil, nil)
	if err := host.RegisterApp("a", core.HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := host.SetManagers("ghost", []wire.NodeID{"m0", "m1"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := host.SetManagers("a", []wire.NodeID{"m0"}); err == nil {
		t.Error("set smaller than C accepted")
	}
	if err := host.SetManagers("a", []wire.NodeID{"m5", "m6"}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// TestDeterministicScenario runs an involved scenario twice from the same
// seeds and requires bit-identical outcomes: the foundation for every
// reproducible experiment in this repository.
func TestDeterministicScenario(t *testing.T) {
	run := func() (string, uint64) {
		users := []wire.UserID{"u0", "u1", "u2"}
		w, err := Build(Config{
			Managers: 4, Hosts: 3,
			Policy: core.Policy{CheckQuorum: 2, Te: 30 * time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
			Te:     30 * time.Second,
			Users:  users,
			Net: simnet.Config{
				Latency: simnet.Exponential{Base: 5 * time.Millisecond, Mean: 20 * time.Millisecond, Cap: 500 * time.Millisecond},
				Loss:    0.05,
				Seed:    123,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		startFlaps(w, 5*time.Second, 0.1, 10*time.Second, 9)

		allowed := 0
		var tick func(i int)
		tick = func(i int) {
			w.Hosts[i%3].Check(w.Cfg.App, users[i%3], wire.RightUse, func(d core.Decision) {
				if d.Allowed {
					allowed++
				}
			})
			if i < 200 {
				w.Sched.After(3*time.Second, func() { tick(i + 1) })
			}
		}
		w.Sched.After(time.Second, func() { tick(0) })
		w.Sched.After(2*time.Minute, func() {
			w.Managers[0].Submit(wire.AdminOp{
				Op: wire.OpRevoke, App: w.Cfg.App, User: "u1", Right: wire.RightUse, Issuer: "admin",
			}, nil)
		})
		w.RunFor(15 * time.Minute)
		st := w.Net.Stats()
		return fmt.Sprintf("allowed=%d %s", allowed, st), w.Sched.Steps()
	}
	out1, steps1 := run()
	out2, steps2 := run()
	if out1 != out2 || steps1 != steps2 {
		t.Errorf("non-deterministic runs:\n  %s steps=%d\n  %s steps=%d", out1, steps1, out2, steps2)
	}
}
