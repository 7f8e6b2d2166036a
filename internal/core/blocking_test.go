package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wanac/internal/wire"
)

func TestCheckContextImmediateDeny(t *testing.T) {
	h := NewHost("h0", newFakeEnv(), nil, nil)
	d, err := h.CheckContext(context.Background(), "ghost", "u", wire.RightUse)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Error("unknown app allowed")
	}
}

func TestCheckContextCacheHit(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Fill the cache via the async path.
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true})

	d, err := h.CheckContext(context.Background(), "a", "u", wire.RightUse)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.CacheHit {
		t.Errorf("decision = %+v", d)
	}
}

func TestCheckContextCanceled(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := h.CheckContext(ctx, "a", "u", wire.RightUse)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled joined with context.Canceled", err)
	}
	// The protocol round keeps running: a late response still fills the
	// cache, so the retry succeeds immediately.
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true})
	d, err := h.CheckContext(context.Background(), "a", "u", wire.RightUse)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.CacheHit {
		t.Errorf("retry decision = %+v, want cached allow", d)
	}
}

func TestSubmitWaitSingleManager(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "root", wire.RightManage)
	r, err := m.SubmitWait(context.Background(), wire.AdminOp{
		Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "root",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.QuorumReached {
		t.Errorf("reply = %+v", r)
	}
}

func TestSubmitWaitRejection(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitWait(context.Background(), wire.AdminOp{
		Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "mallory",
	}); err == nil {
		t.Error("unauthorized submit returned nil error")
	}
}

func TestSubmitWaitCanceled(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, // quorum of 2: blocks
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "root", wire.RightManage)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SubmitWait(ctx, wire.AdminOp{
		Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "root",
	}); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestPurgeLoop(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, Te: 10 * time.Second, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Cache an entry expiring in 10s.
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: 10 * time.Second,
	})
	if len(h.CacheSnapshot()) != 1 {
		t.Fatal("nothing cached")
	}

	loop := h.StartPurgeLoop(5 * time.Second)
	env.advance(6 * time.Second) // first purge: entry still fresh
	if len(h.CacheSnapshot()) != 1 {
		t.Fatal("purge removed a fresh entry")
	}
	env.advance(6 * time.Second) // second purge: entry expired at t=10s
	if len(h.CacheSnapshot()) != 0 {
		t.Fatal("purge loop did not remove the expired entry")
	}

	if !loop.Stop() {
		t.Error("Stop returned false")
	}
	if loop.Stop() {
		t.Error("second Stop returned true")
	}
	before := len(env.timers)
	env.advance(time.Minute)
	for _, tm := range env.timers[before:] {
		if !tm.stopped && !tm.fired {
			t.Error("stopped purge loop armed a new timer")
		}
	}
}

func TestPurgeLoopDefaultInterval(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	loop := h.StartPurgeLoop(0)
	defer loop.Stop()
	if len(env.timers) != 1 || !env.timers[0].at.Equal(env.now.Add(time.Minute)) {
		t.Error("default interval not applied")
	}
}

func TestHostIgnoresResponseFromNonManager(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	fired := false
	h.Check("a", "u", wire.RightUse, func(Decision) { fired = true })
	nonce := env.lastQueryNonce(t)
	// A spoofed grant from a node that is not in Managers(A) must not
	// decide the check even with the right nonce.
	h.HandleMessage("evil", wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true})
	if fired {
		t.Fatal("non-manager response decided the check")
	}
	if len(h.CacheSnapshot()) != 0 {
		t.Fatal("non-manager grant cached")
	}
}

func TestHostIgnoresRevokeNoticeFromNonManager(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	h.HandleMessage("m0", wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true})
	if len(h.CacheSnapshot()) != 1 {
		t.Fatal("nothing cached")
	}
	h.HandleMessage("evil", wire.RevokeNotice{App: "a", User: "u", Right: wire.RightUse})
	if len(h.CacheSnapshot()) != 1 {
		t.Fatal("non-manager revoke notice flushed the cache")
	}
	h.HandleMessage("m0", wire.RevokeNotice{App: "a", User: "u", Right: wire.RightUse})
	if len(h.CacheSnapshot()) != 0 {
		t.Fatal("legitimate revoke notice ignored")
	}
}

func TestHostIgnoresResolveFromWrongNameService(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		NameService: "ns",
		Policy:      Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	fired := false
	h.Check("a", "u", wire.RightUse, func(Decision) { fired = true })
	// Find the resolve nonce.
	var nonce uint64
	for _, envl := range env.sent {
		if rr, ok := envl.Msg.(wire.ResolveRequest); ok {
			nonce = rr.Nonce
		}
	}
	h.HandleMessage("evil", wire.ResolveResponse{App: "a", Nonce: nonce, Managers: []wire.NodeID{"evil"}})
	if fired {
		t.Fatal("spoofed resolve response was accepted")
	}
	h.HandleMessage("ns", wire.ResolveResponse{App: "a", Nonce: nonce, Managers: []wire.NodeID{"m0"}})
	// Now a query went out to m0, from the legitimate set.
	found := false
	for _, envl := range env.sent {
		if _, ok := envl.Msg.(wire.Query); ok && envl.To == "m0" {
			found = true
		}
	}
	if !found {
		t.Fatal("legitimate resolve response did not start the round")
	}
}

func TestSetCacheLimit(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, Te: time.Hour, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	h.SetCacheLimit(2)
	for _, u := range []wire.UserID{"u1", "u2", "u3"} {
		h.Check("a", u, wire.RightUse, func(Decision) {})
		nonce := env.lastQueryNonce(t)
		h.HandleMessage("m0", wire.Response{
			App: "a", User: u, Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Hour,
		})
		env.advance(time.Second) // stagger limits so eviction is deterministic
	}
	if len(h.CacheSnapshot()) != 2 {
		t.Errorf("CacheLen = %d, want 2 (bounded)", len(h.CacheSnapshot()))
	}
}
