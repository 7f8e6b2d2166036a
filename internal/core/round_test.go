package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanac/internal/quorum"
	"wanac/internal/wire"
)

// The check round's rule, from outside: each manager of Managers(A) is sent
// a round's nonce at most once and counts once; C distinct grants allow,
// more than M-C distinct denials deny, and a round the managers asked can no
// longer decide widens in place to the rest.

// verdict is what a scripted manager makes of a query.
type verdict int

const (
	silent verdict = iota
	grants
	denies
	frozen
)

func (v verdict) response(q wire.Query, te time.Duration) wire.Response {
	return wire.Response{
		App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce,
		Granted: v == grants, Frozen: v == frozen, Expire: te,
	}
}

// roundEnv is a fakeEnv that stamps each send with the clock.
type roundEnv struct {
	*fakeEnv
	sentAt []time.Time // parallel to fakeEnv.sent
}

func (e *roundEnv) Send(to wire.NodeID, msg wire.Message) {
	e.fakeEnv.Send(to, msg)
	e.sentAt = append(e.sentAt, e.now)
}

// roundHost is a host with M managers m0..m(M-1), check quorum C and R=2,
// one check for user "u" in flight, and the test standing in for the network.
type roundHost struct {
	t         *testing.T
	env       *roundEnv
	h         *Host
	managers  []wire.NodeID
	decisions []Decision
	read      int                             // env.sent[:read] has been taken by queries
	firstSend map[uint64]time.Time            // nonce -> its first send
	asked     map[uint64]map[wire.NodeID]bool // nonce -> managers sent it
}

const roundTimeout = time.Second

func newRoundHost(t *testing.T, m, c int) *roundHost {
	t.Helper()
	rh := &roundHost{
		t: t, env: &roundEnv{fakeEnv: newFakeEnv()},
		firstSend: map[uint64]time.Time{}, asked: map[uint64]map[wire.NodeID]bool{},
	}
	for i := 0; i < m; i++ {
		rh.managers = append(rh.managers, wire.NodeID(fmt.Sprintf("m%d", i)))
	}
	rh.h = NewHost("h0", rh.env, nil, nil)
	if err := rh.h.RegisterApp("a", HostAppConfig{
		Managers: rh.managers,
		Policy:   Policy{CheckQuorum: c, QueryTimeout: roundTimeout, MaxAttempts: 2, Te: time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	rh.h.Check("a", "u", wire.RightUse, func(d Decision) { rh.decisions = append(rh.decisions, d) })
	return rh
}

// queries returns the queries sent since the last call, failing the test if
// any manager is sent a nonce it was already sent.
func (rh *roundHost) queries() []wire.Envelope {
	rh.t.Helper()
	var out []wire.Envelope
	for ; rh.read < len(rh.env.sent); rh.read++ {
		e := rh.env.sent[rh.read]
		q, ok := e.Msg.(wire.Query)
		if !ok {
			continue
		}
		if rh.asked[q.Nonce] == nil {
			rh.asked[q.Nonce] = map[wire.NodeID]bool{}
			rh.firstSend[q.Nonce] = rh.env.sentAt[rh.read]
		}
		if rh.asked[q.Nonce][e.To] {
			rh.t.Fatalf("%s was sent nonce %d twice", e.To, q.Nonce)
		}
		rh.asked[q.Nonce][e.To] = true
		out = append(out, e)
	}
	return out
}

// exchange answers queries, in the order they were sent and those the
// answers provoke included, until the host sends no more.
func (rh *roundHost) exchange(answer func(to wire.NodeID) verdict) {
	rh.t.Helper()
	for qs := rh.queries(); len(qs) > 0; qs = rh.queries() {
		for _, e := range qs {
			if v := answer(e.To); v != silent {
				rh.h.HandleMessage(e.To, v.response(e.Msg.(wire.Query), time.Minute))
			}
		}
	}
}

func (rh *roundHost) queriesSent() int {
	n := 0
	for _, to := range rh.asked {
		n += len(to)
	}
	return n
}

// TestCheckRoundRule: the rule over a spread of (M, C), scenario by scenario.
// want reports the expected decision and total queries sent for the (M, C).
func TestCheckRoundRule(t *testing.T) {
	all := func(v verdict) func(wire.NodeID) verdict { return func(wire.NodeID) verdict { return v } }
	denied := func(attempts int) Decision { return Decision{Attempts: attempts} }
	allowed := func(c, attempts int) Decision {
		return Decision{Allowed: true, Confirmations: c, Attempts: attempts}
	}
	scenarios := []struct {
		name string
		run  func(rh *roundHost)
		want func(m, c int) (Decision, int)
	}{
		{"all deny", func(rh *roundHost) { rh.exchange(all(denies)) },
			func(m, c int) (Decision, int) {
				// The window's C denials suffice when M-C+1 <= C; otherwise
				// the round widens, and the rest is asked all at once.
				if m-c+1 <= c {
					return denied(1), c
				}
				return denied(1), m
			}},
		{"all grant", func(rh *roundHost) { rh.exchange(all(grants)) },
			func(m, c int) (Decision, int) { return allowed(c, 1), c }},
		{"mixed: m0 denies, the rest grant", func(rh *roundHost) {
			rh.exchange(func(to wire.NodeID) verdict {
				if to == "m0" {
					return denies
				}
				return grants
			})
		}, func(m, c int) (Decision, int) {
			if c == m { // one denial of M leaves M-1 < C possible grants
				return denied(1), m
			}
			return allowed(c, 1), m // C-1 grants in the window, the rest after widening
		}},
		{"frozen answers", func(rh *roundHost) {
			// A frozen manager has answered but neither grants nor denies:
			// the round widens, stays undecided, and times out; so does the
			// full-set retry, and R=2 is exhausted.
			rh.exchange(all(frozen))
			rh.env.advance(roundTimeout)
			rh.exchange(all(frozen))
			rh.env.advance(roundTimeout)
		}, func(m, c int) (Decision, int) { return Decision{Attempts: 2, Frozen: true}, 2 * m }},
		{"one asked manager silent, then the retry", func(rh *roundHost) {
			// m0 is in the first window (the rotation starts there) and
			// never answers it: its grant would complete the window's C, so
			// there is no widening, and the timeout starts a full-set round.
			rh.exchange(func(to wire.NodeID) verdict {
				if to == "m0" {
					return silent
				}
				return grants
			})
			if len(rh.decisions) != 0 {
				rh.t.Fatalf("decided with m0 outstanding: %+v", rh.decisions)
			}
			rh.env.advance(roundTimeout)
			rh.exchange(all(grants))
		}, func(m, c int) (Decision, int) { return allowed(c, 2), c + m }},
		{"late answer to a timed-out nonce", func(rh *roundHost) {
			first := rh.queries()
			rh.env.advance(roundTimeout)
			for _, e := range first { // grants for the dead nonce: discarded (§3.2)
				rh.h.HandleMessage(e.To, grants.response(e.Msg.(wire.Query), time.Minute))
			}
			if len(rh.decisions) != 0 || len(rh.h.CacheSnapshot()) != 0 {
				rh.t.Fatalf("late answers decided the check: %+v", rh.decisions)
			}
			rh.exchange(all(denies))
		}, func(m, c int) (Decision, int) { return denied(2), c + m }},
	}
	for _, mc := range [][2]int{{1, 1}, {3, 1}, {3, 2}, {5, 2}, {5, 3}, {4, 4}} {
		m, c := mc[0], mc[1]
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("M=%d,C=%d/%s", m, c, sc.name), func(t *testing.T) {
				rh := newRoundHost(t, m, c)
				sc.run(rh)
				want, queries := sc.want(m, c)
				if len(rh.decisions) != 1 || rh.decisions[0] != want {
					t.Errorf("decisions = %+v, want one %+v", rh.decisions, want)
				}
				if got := rh.queriesSent(); got != queries {
					t.Errorf("%d queries sent, want %d", got, queries)
				}
				if granters := rh.h.CacheGranters("a", "u", wire.RightUse); want.Allowed && granters != c {
					t.Errorf("cached entry has %d granters, want %d", granters, c)
				} else if !want.Allowed && len(rh.h.CacheSnapshot()) != 0 {
					t.Error("a denied check left a cache entry")
				}
			})
		}
	}
}

// TestDuplicatedDenialCountsOnce: m0 has not applied an Add that m1 and m2
// have, and the network delivers m0's denial twice. That is one manager
// denying, not the two that would rule out C=2 grants among M=3: the refresh
// must widen to m2 and be allowed, and the cached grant must survive.
func TestDuplicatedDenialCountsOnce(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	managers := []wire.NodeID{"m0", "m1", "m2"}
	if err := h.RegisterApp("a", HostAppConfig{Managers: managers, Policy: Policy{
		CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Hour, RefreshAhead: 30 * time.Minute,
	}}); err != nil {
		t.Fatal(err)
	}
	// The warm-up's window is m0,m1, so the refresh below asks m2,m0.
	grantIntoCache(t, env, h, managers, "u", time.Minute)
	env.advance(time.Second) // so the refreshed limit supersedes the warm-up's
	var decisions []Decision
	h.Check("a", "u", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
	if len(decisions) != 1 || !decisions[0].CacheHit {
		t.Fatalf("warm check = %+v, want a cache hit that starts a refresh", decisions)
	}
	answered := 0
	for i := 0; i < len(env.sent); i++ { // the refresh's queries, widening included
		q, ok := env.sent[i].Msg.(wire.Query)
		if !ok || q.Nonce != env.lastQueryNonce(t) {
			continue
		}
		to := env.sent[i].To
		answered++
		if to == "m0" {
			h.HandleMessage(to, denies.response(q, 0))
			h.HandleMessage(to, denies.response(q, 0)) // the duplicate
			continue
		}
		h.HandleMessage(to, grants.response(q, time.Minute))
	}
	if answered != 3 {
		t.Errorf("refresh asked %d managers, want all 3 (m2,m0 then m1)", answered)
	}
	if got := h.CacheGranters("a", "u", wire.RightUse); got != 2 {
		t.Fatalf("cached grant has %d granters after the refresh, want 2 (m1, m2)", got)
	}
	if st := h.Stats(); st.Denied != 0 || st.QueryRounds != 2 {
		t.Errorf("stats = %+v, want no denial and two rounds (warm-up, refresh)", st)
	}
}

// TestCheckRoundProperty drives one check per seed through a network that
// reorders, drops and duplicates, against managers with fixed verdicts and
// grant lifetimes, and holds the host to the arithmetic: after every
// delivery, the check is decided iff the distinct answers its live round has
// received decide it — C grants allow, more than M-C denials deny — an allow
// cites C distinct granters, and its cache limit is no later than the
// round's first send plus the smallest te granted.
func TestCheckRoundProperty(t *testing.T) {
	type inFlight struct {
		to wire.NodeID
		q  wire.Query
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		c := 1 + rng.Intn(m)
		rh := newRoundHost(t, m, c)
		verdicts := map[wire.NodeID]verdict{}
		tes := map[wire.NodeID]time.Duration{}
		for _, id := range rh.managers {
			verdicts[id] = []verdict{grants, grants, denies, denies, frozen}[rng.Intn(5)]
			tes[id] = time.Duration(10+rng.Intn(50)) * time.Second
		}
		drop, dup := rng.Float64()*0.4, rng.Float64()*0.4

		var bag []inFlight
		heard := map[uint64]map[wire.NodeID]bool{} // nonce -> managers heard while it was live
		live := func() uint64 { return rh.env.lastQueryNonce(t) }
		for step := 0; len(rh.decisions) == 0; step++ {
			if step > 10_000 {
				t.Fatalf("seed %d: no decision", seed)
			}
			for _, e := range rh.queries() {
				bag = append(bag, inFlight{e.To, e.Msg.(wire.Query)})
			}
			if len(bag) == 0 {
				rh.env.advance(roundTimeout) // everything in flight was lost
				continue
			}
			rh.env.advance(time.Duration(rng.Intn(150)) * time.Millisecond)
			if len(rh.decisions) != 0 {
				break // the last round timed out and R is exhausted
			}
			i := rng.Intn(len(bag))
			msg := bag[i]
			bag[i] = bag[len(bag)-1]
			bag = bag[:len(bag)-1]
			if rng.Float64() < drop {
				continue
			}
			if rng.Float64() < dup {
				bag = append(bag, msg)
			}
			nonce := live()
			rh.h.HandleMessage(msg.to, verdicts[msg.to].response(msg.q, tes[msg.to]))
			if msg.q.Nonce != nonce {
				if len(rh.decisions) != 0 {
					t.Fatalf("seed %d: an answer to dead nonce %d decided the check", seed, msg.q.Nonce)
				}
				continue
			}
			if heard[nonce] == nil {
				heard[nonce] = map[wire.NodeID]bool{}
			}
			heard[nonce][msg.to] = true
			granted, denied, minTe := 0, 0, time.Duration(0)
			for id := range heard[nonce] {
				switch verdicts[id] {
				case grants:
					granted++
					if minTe == 0 || tes[id] < minTe {
						minTe = tes[id]
					}
				case denies:
					denied++
				}
			}
			switch {
			case granted >= c:
				if len(rh.decisions) != 1 || !rh.decisions[0].Allowed || rh.decisions[0].Confirmations != c {
					t.Fatalf("seed %d (M=%d C=%d): %d grants heard, decisions %+v, want allowed by %d", seed, m, c, granted, rh.decisions, c)
				}
				entries := rh.h.CacheSnapshot()
				if len(entries) != 1 || entries[0].Granters != c {
					t.Fatalf("seed %d: cache after the allow = %+v, want one entry with %d granters", seed, entries, c)
				}
				if latest := rh.firstSend[nonce].Add(minTe); entries[0].Limit.After(latest) {
					t.Fatalf("seed %d: limit %v is later than first send + min te = %v", seed, entries[0].Limit, latest)
				}
			case denied > m-c:
				if len(rh.decisions) != 1 || rh.decisions[0].Allowed {
					t.Fatalf("seed %d (M=%d C=%d): %d denials heard, decisions %+v, want denied", seed, m, c, denied, rh.decisions)
				}
			default:
				if len(rh.decisions) != 0 {
					t.Fatalf("seed %d (M=%d C=%d): decided %+v on %d grants and %d denials", seed, m, c, rh.decisions, granted, denied)
				}
			}
		}
		d := rh.decisions[0]
		if d.Attempts != len(rh.asked) {
			t.Fatalf("seed %d: Attempts = %d over %d nonces", seed, d.Attempts, len(rh.asked))
		}
		if d.Allowed == (len(rh.h.CacheSnapshot()) == 0) {
			t.Fatalf("seed %d: decision %+v with %d cache entries", seed, d, len(rh.h.CacheSnapshot()))
		}
	}
}

// TestHostRejectsMoreManagersThanARoundTracks: a round tracks its managers
// as bits of a uint64, so a 65th manager is refused wherever a set is
// installed — as ErrConfig from the two configuration calls, and as a failed
// resolution when a name service returns one. A resolved set smaller than C
// fails the same quorum.New check and counts as a failed resolution too.
func TestHostRejectsMoreManagersThanARoundTracks(t *testing.T) {
	var many []wire.NodeID
	for i := 0; i <= quorum.MaxManagers; i++ {
		many = append(many, wire.NodeID(fmt.Sprintf("m%d", i)))
	}
	policy := Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1}
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{Managers: many, Policy: policy}); !errors.Is(err, ErrConfig) {
		t.Errorf("RegisterApp with %d managers: %v, want ErrConfig", len(many), err)
	}
	if err := h.RegisterApp("a", HostAppConfig{Managers: many[:quorum.MaxManagers], NameService: "ns", Policy: policy}); err != nil {
		t.Fatalf("RegisterApp with %d managers: %v", quorum.MaxManagers, err)
	}
	if err := h.SetManagers("a", many); !errors.Is(err, ErrConfig) {
		t.Errorf("SetManagers with %d managers: %v, want ErrConfig", len(many), err)
	}

	for _, tc := range []struct {
		app      wire.AppID
		c        int
		managers []wire.NodeID
	}{{"b", 1, many}, {"c", 2, many[:1]}} {
		p := policy
		p.CheckQuorum = tc.c
		if err := h.RegisterApp(tc.app, HostAppConfig{NameService: "ns", Policy: p}); err != nil {
			t.Fatal(err)
		}
		var decisions []Decision
		h.Check(tc.app, "u", wire.RightUse, func(d Decision) { decisions = append(decisions, d) })
		req := env.sent[len(env.sent)-1].Msg.(wire.ResolveRequest)
		h.HandleMessage("ns", wire.ResolveResponse{App: tc.app, Nonce: req.Nonce, Managers: tc.managers})
		if len(decisions) != 1 || decisions[0].Allowed || decisions[0].Attempts != 1 {
			t.Fatalf("app %s: decisions = %+v, want a set of %d at C=%d to count as the one failed resolution",
				tc.app, decisions, len(tc.managers), tc.c)
		}
	}
	for _, e := range env.sent {
		if _, ok := e.Msg.(wire.Query); ok {
			t.Fatalf("queried %s from a resolved set a round cannot use", e.To)
		}
	}
}

// TestRoundWidensOnceTheAskedCannotDecide: widening does not wait for an
// answer that could not matter. At M=5, C=2 one denial leaves the window of
// two short of both C grants and M-C+1 denials whatever the other says, so
// the rest is asked at once, without the silent manager or a timeout. At
// M=3, C=2 the window's second answer could still make it two denials of
// three: the round waits for it, and with it lost, for the timeout.
func TestRoundWidensOnceTheAskedCannotDecide(t *testing.T) {
	m0Denies := func(to wire.NodeID) verdict {
		switch to {
		case "m0":
			return denies
		case "m1":
			return silent
		}
		return grants
	}
	rh := newRoundHost(t, 5, 2)
	rh.exchange(m0Denies)
	if want := (Decision{Allowed: true, Confirmations: 2, Attempts: 1}); len(rh.decisions) != 1 || rh.decisions[0] != want {
		t.Errorf("M=5 C=2: decisions = %+v, want one %+v", rh.decisions, want)
	}
	if got := rh.queriesSent(); got != 5 {
		t.Errorf("M=5 C=2: %d queries sent, want 5", got)
	}

	rh = newRoundHost(t, 3, 2)
	rh.exchange(m0Denies)
	if len(rh.decisions) != 0 || rh.queriesSent() != 2 {
		t.Fatalf("M=3 C=2: decisions %+v after %d queries, want the round waiting on m1 with m2 unasked",
			rh.decisions, rh.queriesSent())
	}
	rh.env.advance(roundTimeout)
	rh.exchange(m0Denies) // the full-set retry: m0 denies, m2 grants, m1 stays silent
	rh.env.advance(roundTimeout)
	if want := (Decision{Attempts: 2}); len(rh.decisions) != 1 || rh.decisions[0] != want {
		t.Errorf("M=3 C=2: decisions = %+v, want one %+v", rh.decisions, want)
	}
}
