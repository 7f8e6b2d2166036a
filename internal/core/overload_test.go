package core

import (
	"testing"
	"time"

	"wanac/internal/wire"
)

func countQueries(env *fakeEnv) int {
	n := 0
	for _, e := range env.sent {
		if _, ok := e.Msg.(wire.Query); ok {
			n++
		}
	}
	return n
}

func TestManagerShedsWhenBucketExhausted(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute, ClockBound: 0.5,
		Overload: OverloadConfig{RateLimit: RateLimitConfig{AppRPS: 1, AppBurst: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)

	for n := uint64(1); n <= 3; n++ {
		m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: n})
	}
	msgs := env.sentTo("h9")
	if len(msgs) != 3 {
		t.Fatalf("replies = %d, want 3", len(msgs))
	}
	for i := 0; i < 2; i++ {
		if _, ok := msgs[i].(wire.Response); !ok {
			t.Fatalf("reply %d = %T, want Response (within burst)", i, msgs[i])
		}
	}
	busy, ok := msgs[2].(wire.Busy)
	if !ok {
		t.Fatalf("reply 2 = %T, want Busy (over budget)", msgs[2])
	}
	if busy.App != "a" || busy.Nonce != 3 {
		t.Errorf("busy = %+v, want app a nonce 3", busy)
	}
	if busy.RetryAfter <= 0 || busy.RetryAfter > DefaultMaxRetryAfter {
		t.Errorf("RetryAfter = %v, want in (0, %v]", busy.RetryAfter, DefaultMaxRetryAfter)
	}
	st := m.Stats()
	if st.QueriesServed != 2 || st.QueriesShed != 1 {
		t.Errorf("served/shed = %d/%d, want 2/1", st.QueriesServed, st.QueriesShed)
	}

	// The bucket refills at 1 token/s: a second later the same host is
	// admitted again.
	env.advance(time.Second)
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 4})
	msgs = env.sentTo("h9")
	if _, ok := msgs[len(msgs)-1].(wire.Response); !ok {
		t.Fatalf("reply after refill = %T, want Response", msgs[len(msgs)-1])
	}
}

func TestManagerPerHostBucketIsolation(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute, ClockBound: 0.5,
		Overload: OverloadConfig{RateLimit: RateLimitConfig{HostRPS: 1, HostBurst: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)

	// h1 exhausts its own bucket; h2's budget is untouched.
	m.HandleMessage("h1", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 1})
	m.HandleMessage("h1", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 2})
	m.HandleMessage("h2", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 3})

	h1 := env.sentTo("h1")
	if len(h1) != 2 {
		t.Fatalf("h1 replies = %d, want 2", len(h1))
	}
	if _, ok := h1[1].(wire.Busy); !ok {
		t.Errorf("h1 second reply = %T, want Busy", h1[1])
	}
	h2 := env.sentTo("h2")
	if len(h2) != 1 {
		t.Fatalf("h2 replies = %d, want 1", len(h2))
	}
	if _, ok := h2[0].(wire.Response); !ok {
		t.Errorf("h2 reply = %T, want Response (not punished for h1's flood)", h2[0])
	}
}

func TestHostBusyBackoffAndRetry(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: 10 * time.Second, MaxAttempts: 3},
	}); err != nil {
		t.Fatal(err)
	}
	var decisions []Decision
	h.Check("a", "u", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
	nonce := env.lastQueryNonce(t)

	// A Busy from a non-manager must be ignored outright.
	h.HandleMessage("evil", wire.Busy{App: "a", Nonce: nonce, RetryAfter: time.Second})
	if st := h.Stats(); st.BusyReplies != 0 || st.Backoffs != 0 {
		t.Fatalf("spoofed busy counted: %+v", st)
	}

	h.HandleMessage("m0", wire.Busy{App: "a", Nonce: nonce, RetryAfter: time.Second})
	if st := h.Stats(); st.BusyReplies != 1 || st.Backoffs != 1 {
		t.Fatalf("busy/backoffs = %d/%d, want 1/1", st.BusyReplies, st.Backoffs)
	}
	if len(decisions) != 0 {
		t.Fatalf("busy decided the check: %+v", decisions)
	}
	// The round is cancelled: a straggling response for the old nonce is
	// discarded, not cached.
	h.HandleMessage("m0", wire.Response{App: "a", User: "u", Right: wire.RightUse, Nonce: nonce, Granted: true})
	if len(decisions) != 0 || len(h.CacheSnapshot()) != 0 {
		t.Fatal("response for a cancelled round was honored")
	}

	// New checks inside the busy window defer instead of querying.
	sent := countQueries(env)
	h.Check("a", "v", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
	if countQueries(env) != sent {
		t.Fatal("check during busy window sent a query")
	}
	if st := h.Stats(); st.Backoffs != 2 {
		t.Errorf("Backoffs = %d, want 2", st.Backoffs)
	}

	// The jittered delay is within [RetryAfter/2, RetryAfter): after the
	// full advertised window both parked rounds must have restarted.
	env.advance(time.Second)
	if got := countQueries(env); got != sent+2 {
		t.Fatalf("queries after window = %d, want %d", got, sent+2)
	}
	nonce2 := env.lastQueryNonce(t)
	if nonce2 == nonce {
		t.Fatal("retry reused the cancelled nonce")
	}
	for _, e := range env.sent[len(env.sent)-2:] {
		q := e.Msg.(wire.Query)
		h.HandleMessage("m0", wire.Response{
			App: "a", User: q.User, Right: wire.RightUse, Nonce: q.Nonce, Granted: true, Expire: time.Minute,
		})
	}
	if len(decisions) != 2 {
		t.Fatalf("decisions = %d, want 2", len(decisions))
	}
	for i, d := range decisions {
		if !d.Allowed {
			t.Errorf("decision %d = %+v, want allowed", i, d)
		}
		// The backoff retry does not consume one of the policy's R
		// attempts — the manager asked to be tried later, which is not a
		// reachability failure.
		if d.Attempts != 1 {
			t.Errorf("decision %d attempts = %d, want 1", i, d.Attempts)
		}
	}
}

func TestHostBusyClampsRetryAfter(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Hour, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h.Check("a", "u", wire.RightUse, func(Decision) {})
	nonce := env.lastQueryNonce(t)
	// A garbled (huge) Retry-After must not park the app beyond the host's
	// 30s defensive clamp; the jittered delay stays below the clamp.
	h.HandleMessage("m0", wire.Busy{App: "a", Nonce: nonce, RetryAfter: 24 * time.Hour})
	sent := countQueries(env)
	env.advance(30 * time.Second)
	if countQueries(env) != sent+1 {
		t.Fatal("clamped backoff did not retry within 30s")
	}
}

func TestAdaptiveTeWidensAndDecays(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Second, ClockBound: 0.5,
		Overload: OverloadConfig{
			RateLimit:  RateLimitConfig{AppRPS: 1, AppBurst: 1},
			AdaptiveTe: AdaptiveTeConfig{Max: 3 * time.Second, Interval: time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)
	if te := m.Stats().EffectiveTe; te != time.Second {
		t.Fatalf("EffectiveTe at rest = %v, want 1s", te)
	}

	overload := func(nonce uint64) {
		// Two back-to-back queries against a burst-1 bucket: one served,
		// one shed, marking the interval as overloaded.
		m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: nonce})
		m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: nonce + 1})
	}

	overload(1)
	env.advance(time.Second) // first controller tick: 1s -> 2s
	st := m.Stats()
	if st.EffectiveTe != 2*time.Second || st.TeWidenings != 1 {
		t.Fatalf("after 1 overloaded interval: te=%v widenings=%d, want 2s/1", st.EffectiveTe, st.TeWidenings)
	}

	overload(10)
	env.advance(time.Second) // second tick: 2s doubled would be 4s, capped at Max=3s
	st = m.Stats()
	if st.EffectiveTe != 3*time.Second || st.TeWidenings != 2 {
		t.Fatalf("after 2 overloaded intervals: te=%v widenings=%d, want 3s (capped)/2", st.EffectiveTe, st.TeWidenings)
	}

	// Quiet intervals decay back toward the configured base and no further.
	env.advance(time.Second)
	if te := m.Stats().EffectiveTe; te != 1500*time.Millisecond {
		t.Fatalf("after 1 quiet interval: te=%v, want 1.5s", te)
	}
	env.advance(5 * time.Second)
	st = m.Stats()
	if st.EffectiveTe != time.Second {
		t.Fatalf("after quiet intervals: te=%v, want base 1s", st.EffectiveTe)
	}
	if st.TeWidenings != 2 {
		t.Errorf("decay counted as widening: %d", st.TeWidenings)
	}
}

func TestAdaptiveTeResetOnResetVolatile(t *testing.T) {
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Second, ClockBound: 0.5,
		Overload: OverloadConfig{
			RateLimit:  RateLimitConfig{AppRPS: 1, AppBurst: 1},
			AdaptiveTe: AdaptiveTeConfig{Max: 8 * time.Second, Interval: time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "alice", wire.RightUse)
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 1})
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 2})
	env.advance(time.Second)
	if te := m.Stats().EffectiveTe; te != 2*time.Second {
		t.Fatalf("EffectiveTe = %v, want 2s", te)
	}

	m.ResetVolatile()
	if te := m.Stats().EffectiveTe; te != time.Second {
		t.Fatalf("EffectiveTe after reset = %v, want base 1s", te)
	}
	// The controller is re-armed: a fresh overload interval widens again.
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 3})
	m.HandleMessage("h9", wire.Query{App: "a", User: "alice", Right: wire.RightUse, Nonce: 4})
	env.advance(time.Second)
	if te := m.Stats().EffectiveTe; te != 2*time.Second {
		t.Fatalf("EffectiveTe after reset+overload = %v, want 2s", te)
	}
}
