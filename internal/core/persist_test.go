package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wanac/internal/wire"
)

func newPersistManager(t *testing.T, id wire.NodeID) (*Manager, *fakeEnv) {
	t.Helper()
	env := newFakeEnv()
	m := NewManager(id, env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{id}, CheckQuorum: 1, Te: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "root", wire.RightManage)
	return m, env
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m1, _ := newPersistManager(t, "m0")
	for _, op := range []wire.AdminOp{
		{Op: wire.OpAdd, App: "a", User: "alice", Right: wire.RightUse, Issuer: "root"},
		{Op: wire.OpAdd, App: "a", User: "bob", Right: wire.RightUse, Issuer: "root"},
		{Op: wire.OpRevoke, App: "a", User: "bob", Right: wire.RightUse, Issuer: "root"},
	} {
		m1.Submit(op, nil)
	}

	var buf bytes.Buffer
	if err := m1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager instance loads the snapshot.
	m2, _ := newPersistManager(t, "m0")
	if err := m2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !m2.Has("a", "alice", wire.RightUse) {
		t.Error("alice lost across restart")
	}
	if m2.Has("a", "bob", wire.RightUse) {
		t.Error("bob's revocation lost across restart")
	}
	if !m2.Has("a", "root", wire.RightManage) {
		t.Error("seeded manage right lost")
	}

	// Sequence numbers continue instead of restarting from 1: a new update
	// must carry counter 4.
	var got wire.UpdateSeq
	env2 := m2.env.Env.(*fakeEnv)
	_ = env2
	m2.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "carol", Right: wire.RightUse, Issuer: "root"}, nil)
	m2.mu.Lock()
	got = m2.apps["a"].lastOp[grantKey{user: "carol", right: wire.RightUse}].Seq
	m2.mu.Unlock()
	if got.Counter != 4 {
		t.Errorf("post-restart counter = %d, want 4 (no seq reuse)", got.Counter)
	}
}

// TestLoadStatePreservesLWWFrontier: a stale retransmission arriving after
// a restore must still lose to the persisted newer revoke.
func TestLoadStatePreservesLWWFrontier(t *testing.T) {
	env := newFakeEnv()
	m1 := NewManager("m0", env, nil, nil)
	if err := m1.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	// Peer m1's updates: add(u) at t=1, then revoke(u) at t=2, applied in
	// order.
	add := wire.Update{
		Seq: wire.UpdateSeq{Origin: "m1", Counter: 1}, Op: wire.OpAdd,
		App: "a", User: "u", Right: wire.RightUse, Issued: env.now.Add(time.Second),
	}
	revoke := wire.Update{
		Seq: wire.UpdateSeq{Origin: "m1", Counter: 2}, Op: wire.OpRevoke,
		App: "a", User: "u", Right: wire.RightUse, Issued: env.now.Add(2 * time.Second),
	}
	m1.HandleMessage("m1", add)
	m1.HandleMessage("m1", revoke)
	if m1.Has("a", "u", wire.RightUse) {
		t.Fatal("revoke not applied")
	}

	var buf bytes.Buffer
	if err := m1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m2.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}

	// The stale add retransmission arrives again post-restart: counters say
	// "already applied" so it is simply re-acked; state must not regress.
	m2.HandleMessage("m1", add)
	if m2.Has("a", "u", wire.RightUse) {
		t.Error("stale add regressed restored state")
	}
}

func TestLoadStateValidation(t *testing.T) {
	m, _ := newPersistManager(t, "m0")
	if err := m.LoadState(strings.NewReader("{garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if err := m.LoadState(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if err := m.LoadState(strings.NewReader(`{"version":1,"node":"other"}`)); err == nil {
		t.Error("foreign snapshot accepted")
	}
	if err := m.LoadState(strings.NewReader(`{"version":1,"node":"m0","apps":{"ghost":{"counter":5}}}`)); err != nil {
		t.Errorf("unregistered app should be skipped, got %v", err)
	}
}

func TestSaveStateSkipsVolatileState(t *testing.T) {
	m, _ := newPersistManager(t, "m0")
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "root"}, nil)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, banned := range []string{"grants", "frozen", "acked", "outstanding"} {
		if strings.Contains(s, banned) {
			t.Errorf("snapshot leaks volatile field %q", banned)
		}
	}
	if !strings.Contains(s, `"alice"`) && !strings.Contains(s, `"u"`) {
		t.Error("snapshot missing ACL content")
	}
}
