package core

import (
	"math/rand"
	"testing"
	"time"

	"wanac/internal/wire"
)

// randomMessage produces an arbitrary protocol message with adversarial
// field values; ids are drawn from a small pool so some messages alias real
// nodes and some do not.
func randomMessage(rng *rand.Rand) wire.Message {
	ids := []wire.NodeID{"m0", "m1", "h0", "evil", ""}
	apps := []wire.AppID{"a", "ghost", ""}
	users := []wire.UserID{"u", "root", "", "\x00weird"}
	id := func() wire.NodeID { return ids[rng.Intn(len(ids))] }
	app := func() wire.AppID { return apps[rng.Intn(len(apps))] }
	user := func() wire.UserID { return users[rng.Intn(len(users))] }
	right := func() wire.Right { return wire.Right(rng.Intn(4)) }
	seq := func() wire.UpdateSeq {
		return wire.UpdateSeq{Origin: id(), Counter: uint64(rng.Intn(5))}
	}
	dur := func() time.Duration { return time.Duration(rng.Int63n(3) - 1) }

	switch rng.Intn(14) {
	case 0:
		return wire.Query{App: app(), User: user(), Right: right(), Nonce: uint64(rng.Intn(10))}
	case 1:
		return wire.Response{
			App: app(), User: user(), Right: right(), Nonce: uint64(rng.Intn(10)),
			Granted: rng.Intn(2) == 0, Frozen: rng.Intn(2) == 0, Expire: dur(),
		}
	case 2:
		return wire.RevokeNotice{App: app(), User: user(), Right: right(), Seq: seq()}
	case 3:
		return wire.RevokeAck{App: app(), User: user(), Seq: seq()}
	case 4:
		return wire.Update{
			Seq: seq(), Op: wire.Op(rng.Intn(4)), App: app(), User: user(),
			Right: right(), Issued: time.Unix(rng.Int63n(1e6), 0),
		}
	case 5:
		return wire.UpdateAck{Seq: seq()}
	case 6:
		return wire.SyncRequest{App: app()}
	case 7:
		return wire.SyncResponse{
			App:     app(),
			Entries: []wire.ACLEntry{{App: app(), User: user(), Right: right()}},
			Applied: map[wire.NodeID]uint64{id(): uint64(rng.Intn(5))},
			Ops:     []wire.Update{{Seq: seq(), Op: wire.Op(rng.Intn(4)), App: app(), User: user(), Right: right()}},
		}
	case 8:
		return wire.Heartbeat{Nonce: uint64(rng.Intn(5))}
	case 9:
		return wire.HeartbeatAck{Nonce: uint64(rng.Intn(5))}
	case 10:
		return wire.Invoke{App: app(), User: user(), ReqID: uint64(rng.Intn(5)), Payload: []byte{0xFF}}
	case 11:
		return wire.AdminOp{
			Op: wire.Op(rng.Intn(4)), App: app(), User: user(), Right: right(),
			Issuer: user(), ReqID: uint64(rng.Intn(5)), ValidFor: dur(),
		}
	case 12:
		return wire.ResolveResponse{
			App: app(), Nonce: uint64(rng.Intn(10)),
			Managers: []wire.NodeID{id()}, TTL: dur(),
		}
	default:
		return wire.Sealed{User: user(), Frame: []byte{byte(rng.Intn(256))}, Sig: []byte{1}}
	}
}

// TestHostSurvivesRandomMessages: 50k adversarial messages interleaved with
// timer firings must never panic the host, and real checks must still work
// afterwards.
func TestHostSurvivesRandomMessages(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	senders := []wire.NodeID{"m0", "m1", "evil", ""}
	for i := 0; i < 50000; i++ {
		h.HandleMessage(senders[rng.Intn(len(senders))], randomMessage(rng))
		if i%100 == 0 {
			h.Check("a", "u", wire.RightUse, func(Decision) {})
		}
		if i%250 == 0 {
			env.advance(500 * time.Millisecond)
		}
	}
	// The host still functions: a legitimate grant decides a fresh check.
	h.Reset()
	decided := false
	h.Check("a", "fresh", wire.RightUse, func(d Decision) { decided = true })
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "fresh", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute,
	})
	if !decided {
		t.Fatal("host wedged after random message storm")
	}
}

// TestManagerSurvivesRandomMessages does the same for the manager node.
func TestManagerSurvivesRandomMessages(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
		UpdateRetry: time.Second, MaxUpdateRetries: 2,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "root", wire.RightManage)
	rng := rand.New(rand.NewSource(13))
	senders := []wire.NodeID{"m1", "h0", "evil", ""}
	for i := 0; i < 50000; i++ {
		m.HandleMessage(senders[rng.Intn(len(senders))], randomMessage(rng))
		if i%500 == 0 {
			env.advance(2 * time.Second)
		}
	}
	// Still functional: a query is answered.
	before := len(env.sent)
	m.HandleMessage("h9", wire.Query{App: "a", User: "root", Right: wire.RightManage, Nonce: 1})
	if len(env.sent) == before {
		t.Fatal("manager wedged after random message storm")
	}
}

// TestManagerSurvivesRandomMessagesWhileRecovering covers the sync-state
// paths under the same storm.
func TestManagerSurvivesRandomMessagesWhileRecovering(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute, SyncRetry: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	m.Recover()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		m.HandleMessage("m1", randomMessage(rng))
		if i%500 == 0 {
			env.advance(time.Second)
		}
	}
	// A well-formed sync response ends recovery whether or not the storm
	// already delivered one.
	m.HandleMessage("m1", wire.SyncResponse{App: "a"})
	if m.Stats().SyncingApps != 0 {
		t.Fatal("manager stuck in recovery")
	}
}
