package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"wanac/internal/quorum"
	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// fakeEnv is a minimal deterministic environment for white-box node tests.
type fakeEnv struct {
	now    time.Time
	sent   []wire.Envelope
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Time
	fn      func()
	stopped bool
	fired   bool
}

func (t *fakeTimer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

func newFakeEnv() *fakeEnv { return &fakeEnv{now: vclock.Epoch} }

func (e *fakeEnv) Now() time.Time { return e.now }

func (e *fakeEnv) Send(to wire.NodeID, msg wire.Message) {
	e.sent = append(e.sent, wire.Envelope{To: to, Msg: msg})
}

func (e *fakeEnv) SetTimer(d time.Duration, fn func()) TimerHandle {
	t := &fakeTimer{at: e.now.Add(d), fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves time forward, firing due timers in deadline order.
func (e *fakeEnv) advance(d time.Duration) {
	target := e.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range e.timers {
			if t.fired || t.stopped || t.at.After(target) {
				continue
			}
			if next == nil || t.at.Before(next.at) {
				next = t
			}
		}
		if next == nil {
			break
		}
		e.now = next.at
		next.fired = true
		next.fn()
	}
	e.now = target
}

// sentTo returns messages sent to the given node.
func (e *fakeEnv) sentTo(to wire.NodeID) []wire.Message {
	var out []wire.Message
	for _, env := range e.sent {
		if env.To == to {
			out = append(out, env.Msg)
		}
	}
	return out
}

func (e *fakeEnv) lastQueryNonce(t *testing.T) uint64 {
	t.Helper()
	for i := len(e.sent) - 1; i >= 0; i-- {
		if q, ok := e.sent[i].Msg.(wire.Query); ok {
			return q.Nonce
		}
	}
	t.Fatal("no query sent")
	return 0
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name   string
		p      Policy
		m      int
		wantOK bool
	}{
		{"valid", Policy{CheckQuorum: 2, Te: time.Minute}, 3, true},
		{"c too small", Policy{CheckQuorum: 0}, 3, false},
		{"c too large", Policy{CheckQuorum: 4}, 3, false},
		{"no managers", Policy{CheckQuorum: 1}, 0, false},
		{"negative te", Policy{CheckQuorum: 1, Te: -1}, 3, false},
		{"bad clock bound", Policy{CheckQuorum: 1, ClockBound: 1.5}, 3, false},
		{"negative attempts", Policy{CheckQuorum: 1, MaxAttempts: -1}, 3, false},
		{"default allow needs bound", Policy{CheckQuorum: 1, DefaultAllow: true}, 3, false},
		{"default allow bounded", Policy{CheckQuorum: 1, DefaultAllow: true, MaxAttempts: 2}, 3, true},
	}
	for _, c := range cases {
		_, err := c.p.withDefaults().validate(c.m)
		if (err == nil) != c.wantOK {
			t.Errorf("%s: err = %v, wantOK=%v", c.name, err, c.wantOK)
		}
		if err != nil && !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error not wrapping ErrConfig: %v", c.name, err)
		}
	}
}

func TestPolicyPresets(t *testing.T) {
	sf := SecurityFirst(3, time.Minute)
	if sf.CheckQuorum != 3 || sf.DefaultAllow || sf.MaxAttempts == 0 {
		t.Errorf("SecurityFirst = %+v", sf)
	}
	af := AvailabilityFirst(2, time.Minute)
	if af.CheckQuorum != 1 || !af.DefaultAllow || af.MaxAttempts != 2 {
		t.Errorf("AvailabilityFirst = %+v", af)
	}
	b := Balanced(10, time.Minute)
	if b.CheckQuorum != 5 {
		t.Errorf("Balanced(10) C = %d", b.CheckQuorum)
	}
	if b := Balanced(1, time.Minute); b.CheckQuorum != 1 {
		t.Errorf("Balanced(1) C = %d", b.CheckQuorum)
	}
}

func TestManagerAppConfigValidate(t *testing.T) {
	peers := []wire.NodeID{"m0", "m1", "m2"}
	var sixtyFive []wire.NodeID
	for i := 0; i <= quorum.MaxManagers; i++ {
		sixtyFive = append(sixtyFive, wire.NodeID(fmt.Sprintf("m%d", i)))
	}
	cases := []struct {
		name   string
		cfg    ManagerAppConfig
		wantOK bool
	}{
		{"valid", ManagerAppConfig{Peers: peers, CheckQuorum: 2, Te: time.Minute}, true},
		{"missing self", ManagerAppConfig{Peers: []wire.NodeID{"m1", "m2"}, CheckQuorum: 1}, false},
		{"empty peers", ManagerAppConfig{CheckQuorum: 1}, false},
		{"bad quorum", ManagerAppConfig{Peers: peers, CheckQuorum: 4}, false},
		{"more peers than a set holds", ManagerAppConfig{Peers: sixtyFive, CheckQuorum: 1}, false},
		{"negative te", ManagerAppConfig{Peers: peers, CheckQuorum: 1, Te: -time.Second}, false},
		{"ti >= te", ManagerAppConfig{Peers: peers, CheckQuorum: 1, Te: time.Minute, FreezeTi: time.Minute}, false},
		{"ti < te", ManagerAppConfig{Peers: peers, CheckQuorum: 1, Te: time.Minute, FreezeTi: 10 * time.Second}, true},
	}
	for _, c := range cases {
		_, err := c.cfg.withDefaults().validate("m0")
		if (err == nil) != c.wantOK {
			t.Errorf("%s: err = %v, wantOK=%v", c.name, err, c.wantOK)
		}
		if err != nil && !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error not wrapping ErrConfig: %v", c.name, err)
		}
	}
}

func TestHostRegisterAppErrors(t *testing.T) {
	h := NewHost("h0", newFakeEnv(), nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{}); !errors.Is(err, ErrConfig) {
		t.Errorf("no managers/ns: %v", err)
	}
	cfg := HostAppConfig{Managers: []wire.NodeID{"m0"}, Policy: Policy{CheckQuorum: 1}}
	if err := h.RegisterApp("a", cfg); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterApp("a", cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("duplicate register: %v", err)
	}
	if err := h.RegisterApp("b", HostAppConfig{NameService: "ns", Policy: Policy{CheckQuorum: 0}}); err == nil {
		t.Error("zero quorum with name service accepted")
	}
}

func TestHostUnknownAppAndInvalidRightDenied(t *testing.T) {
	h := NewHost("h0", newFakeEnv(), nil, nil)
	var got []Decision
	h.Check("ghost", "u", wire.RightUse, func(d Decision) { got = append(got, d) })
	cfg := HostAppConfig{Managers: []wire.NodeID{"m0"}, Policy: Policy{CheckQuorum: 1}}
	if err := h.RegisterApp("a", cfg); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u", wire.Right(9), func(d Decision) { got = append(got, d) })
	if len(got) != 2 {
		t.Fatalf("decisions = %d, want 2 immediate denials", len(got))
	}
	for i, d := range got {
		if d.Allowed {
			t.Errorf("decision %d allowed", i)
		}
	}
}

func TestHostIgnoresStaleResponse(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decisions []Decision
	h.Check("a", "u", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
	nonce := env.lastQueryNonce(t)

	// Round times out, then the response finally straggles in: it must be
	// discarded (§3.2), not cached.
	env.advance(1100 * time.Millisecond)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute,
	})
	if len(decisions) != 0 {
		t.Fatalf("stale response decided the check: %+v", decisions)
	}
	if h.cache.Len() != 0 {
		t.Fatal("stale response cached")
	}

	// The retry round's response decides.
	nonce2 := env.lastQueryNonce(t)
	if nonce2 == nonce {
		t.Fatal("no new round started")
	}
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u", Right: wire.RightUse, Nonce: nonce2, Granted: true, Expire: time.Minute,
	})
	if len(decisions) != 1 || !decisions[0].Allowed || decisions[0].Attempts != 2 {
		t.Fatalf("decisions = %+v", decisions)
	}
}

func TestHostDuplicateGrantsFromSameManagerNotCounted(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var decisions []Decision
	h.Check("a", "u", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
	nonce := env.lastQueryNonce(t)
	resp := wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute}
	h.HandleMessage("m0", resp)
	h.HandleMessage("m0", resp) // duplicate from the same manager
	if len(decisions) != 0 {
		t.Fatalf("C=2 satisfied by one manager: %+v", decisions)
	}
	h.HandleMessage("m1", resp)
	if len(decisions) != 1 || !decisions[0].Allowed || decisions[0].Confirmations != 2 {
		t.Fatalf("decisions = %+v", decisions)
	}
}

func TestHostMismatchedResponseIgnored(t *testing.T) {
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
	// Right nonce, wrong user: a confused (or malicious) manager must not
	// decide someone else's check.
	h.HandleMessage("m0", wire.Response{App: "a", User: "other", Right: wire.RightUse, Nonce: nonce, Granted: true})
	if fired {
		t.Fatal("mismatched response decided the check")
	}
}

func TestHostExpireUsesSendTime(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: 10 * time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	sentAt := env.now
	nonce := env.lastQueryNonce(t)

	// The response arrives 5s later with te=60s. The cached limit must be
	// sentAt+60s (δ adjustment, §3.2), NOT arrival+60s.
	env.advance(5 * time.Second)
	h.HandleMessage("m0", wire.Response{
		App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: time.Minute,
	})
	// At sentAt+60s the entry must be expired even though only 55s passed
	// since the grant arrived.
	env.now = sentAt.Add(time.Minute)
	denied := false
	var cacheHit bool
	h.Check("a", "u", wire.RightUse, func(d Decision) { denied, cacheHit = !d.Allowed, d.CacheHit })
	// No managers respond this round; the check is pending. What matters is
	// that the stale entry did NOT serve a cache hit.
	if denied || cacheHit {
		t.Fatalf("entry served past sentAt+te: denied=%v cacheHit=%v", denied, cacheHit)
	}
}

func TestManagerAddAppErrors(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	cfg := ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}
	if err := m.AddApp("a", cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp("a", cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("duplicate AddApp: %v", err)
	}
	if err := m.AddApp("b", ManagerAppConfig{Peers: []wire.NodeID{"m1"}, CheckQuorum: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("peers without self: %v", err)
	}
}

func TestManagerSubmitAuthorization(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	var replies []wire.AdminReply
	cb := func(r wire.AdminReply) { replies = append(replies, r) }

	// Unknown app.
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "ghost", User: "u", Right: wire.RightUse, Issuer: "root"}, cb)
	// Issuer without manage right.
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "mallory"}, cb)
	// Invalid right.
	m.Seed("a", "root", wire.RightManage)
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.Right(9), Issuer: "root"}, cb)
	// Missing issuer.
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse}, cb)

	if len(replies) != 4 {
		t.Fatalf("replies = %d, want 4", len(replies))
	}
	for i, r := range replies {
		if r.Accepted || r.Err == "" {
			t.Errorf("reply %d = %+v, want rejection", i, r)
		}
	}

	// Authorized: single-manager quorum resolves immediately.
	m.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse, Issuer: "root"}, cb)
	last := replies[len(replies)-1]
	if !last.Accepted || !last.QuorumReached {
		t.Fatalf("authorized submit reply = %+v", last)
	}
	if !m.Has("a", "u", wire.RightUse) {
		t.Error("grant not applied")
	}
}

// TestSingleManagerUpdatesFinish submits 100 operations to an app whose only
// manager is the issuer: each reaches its quorum and is fully acked at issue,
// so none stays outstanding and every one reuses the same update record.
func TestSingleManagerUpdatesFinish(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "root", wire.RightManage)
	reached := 0
	var rec *outUpdate
	for i := 0; i < 100; i++ {
		op := wire.OpAdd
		if i%2 == 1 {
			op = wire.OpRevoke
		}
		m.Submit(wire.AdminOp{Op: op, App: "a", User: "u", Right: wire.RightUse, Issuer: "root"}, func(r wire.AdminReply) {
			if r.QuorumReached {
				reached++
			}
		})
		if len(m.outstanding) != 0 || len(m.freeUpdates) != 1 {
			t.Fatalf("after %d submits: %d outstanding, %d free records; want 0 and 1", i+1, len(m.outstanding), len(m.freeUpdates))
		}
		if rec == nil {
			rec = m.freeUpdates[0]
		} else if m.freeUpdates[0] != rec {
			t.Fatalf("submit %d used a new update record", i+1)
		}
	}
	if reached != 100 {
		t.Fatalf("%d of 100 submits reached their quorum", reached)
	}
}

func TestManagerQueryGrantDeny(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute, ClockBound: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)

	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 7})
	m.HandleMessage("h9", wire.Query{App: "a", User: "bob", Right: wire.RightUse, Nonce: 8})
	m.HandleMessage("h9", wire.Query{App: "ghost", User: "x", Right: wire.RightUse, Nonce: 9})

	msgs := env.sentTo("h9")
	if len(msgs) != 3 {
		t.Fatalf("responses = %d", len(msgs))
	}
	granted := msgs[0].(wire.Response)
	if !granted.Granted || granted.Nonce != 7 {
		t.Errorf("grant response = %+v", granted)
	}
	if want := 30 * time.Second; granted.Expire != want { // Te*b
		t.Errorf("Expire = %v, want %v", granted.Expire, want)
	}
	if denied := msgs[1].(wire.Response); denied.Granted || denied.Nonce != 8 {
		t.Errorf("deny response = %+v", denied)
	}
	if unknown := msgs[2].(wire.Response); unknown.Granted {
		t.Errorf("unknown-app response = %+v", unknown)
	}
}

func TestManagerEntriesSorted(t *testing.T) {
	m := NewManager("m0", newFakeEnv(), nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "zoe", wire.RightUse)
	m.Seed("a", "amy", wire.RightUse)
	entries := m.store.Entries("a")
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].User < entries[j].User }) {
		t.Errorf("entries unsorted: %v", entries)
	}
}

func TestDecisionZeroValueDenies(t *testing.T) {
	var d Decision
	if d.Allowed || d.CacheHit || d.DefaultAllowed {
		t.Error("zero Decision should deny")
	}
}

func TestNewerOpOrdering(t *testing.T) {
	at := vclock.Epoch
	base := wire.Update{Seq: wire.UpdateSeq{Origin: "m1", Counter: 5}, Issued: at}
	cases := []struct {
		name string
		a    wire.Update
		want bool
	}{
		{"later timestamp wins", wire.Update{Seq: wire.UpdateSeq{Origin: "m0", Counter: 1}, Issued: at.Add(time.Second)}, true},
		{"earlier timestamp loses", wire.Update{Seq: wire.UpdateSeq{Origin: "m9", Counter: 9}, Issued: at.Add(-time.Second)}, false},
		{"tie: higher origin wins", wire.Update{Seq: wire.UpdateSeq{Origin: "m2", Counter: 1}, Issued: at}, true},
		{"tie: lower origin loses", wire.Update{Seq: wire.UpdateSeq{Origin: "m0", Counter: 9}, Issued: at}, false},
		{"tie+origin: higher counter wins", wire.Update{Seq: wire.UpdateSeq{Origin: "m1", Counter: 6}, Issued: at}, true},
		{"tie+origin: lower counter loses", wire.Update{Seq: wire.UpdateSeq{Origin: "m1", Counter: 4}, Issued: at}, false},
		{"identical loses", base, false},
	}
	for _, c := range cases {
		if got := newerOp(c.a, base); got != c.want {
			t.Errorf("%s: newerOp = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNewerOpAntisymmetricQuick: for any two distinct updates exactly one
// direction is "newer" — the property that makes LWW converge.
func TestNewerOpAntisymmetricQuick(t *testing.T) {
	f := func(t1, t2 uint32, o1, o2 uint8, c1, c2 uint8) bool {
		a := wire.Update{
			Seq:    wire.UpdateSeq{Origin: wire.NodeID(rune('a' + o1%4)), Counter: uint64(c1)},
			Issued: vclock.Epoch.Add(time.Duration(t1%100) * time.Second),
		}
		b := wire.Update{
			Seq:    wire.UpdateSeq{Origin: wire.NodeID(rune('a' + o2%4)), Counter: uint64(c2)},
			Issued: vclock.Epoch.Add(time.Duration(t2%100) * time.Second),
		}
		if a.Seq == b.Seq && a.Issued.Equal(b.Issued) {
			return !newerOp(a, b) && !newerOp(b, a)
		}
		return newerOp(a, b) != newerOp(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestManagerIDAndHostID(t *testing.T) {
	if NewManager("mx", newFakeEnv(), nil, nil).ID() != "mx" {
		t.Error("Manager.ID wrong")
	}
	if NewHost("hx", newFakeEnv(), nil, nil).ID() != "hx" {
		t.Error("Host.ID wrong")
	}
}

func TestCacheGrantersAccessor(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1"},
		Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	resp := wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true}
	h.HandleMessage("m0", resp)
	h.HandleMessage("m1", resp)
	if got := h.CacheGranters("a", "u", wire.RightUse); got != 2 {
		t.Errorf("CacheGranters = %d, want 2", got)
	}
}
