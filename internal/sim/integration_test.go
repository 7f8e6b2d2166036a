package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wanac/internal/auth"
	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// TestAuthenticatedEndToEnd wires a keyring-enforcing deployment: only
// sealed Invoke traffic with a valid signature and matching identity claim
// reaches the access control layer (§2.1's authentication assumption made
// concrete).
func TestAuthenticatedEndToEnd(t *testing.T) {
	const app wire.AppID = "vault"
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})

	aliceKey, err := auth.GenerateEd25519(nil)
	if err != nil {
		t.Fatal(err)
	}
	malloryKey, err := auth.GenerateEd25519(nil)
	if err != nil {
		t.Fatal(err)
	}
	keyring := auth.NewKeyring()
	if err := keyring.Register("alice", aliceKey.Verifier()); err != nil {
		t.Fatal(err)
	}
	// mallory's key is NOT in the keyring.

	mgr := core.NewManager("m0", NewEnv("m0", net), nil, keyring)
	if err := mgr.AddApp(app, core.ManagerAppConfig{Peers: []wire.NodeID{"m0"}, CheckQuorum: 1, Te: time.Minute}); err != nil {
		t.Fatal(err)
	}
	mgr.Seed(app, "alice", wire.RightUse)
	net.Attach("m0", mgr)

	served := 0
	host := core.NewHost("h0", NewEnv("h0", net), nil, keyring)
	if err := host.RegisterApp(app, core.HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
		App: core.ApplicationFunc(func(wire.UserID, []byte) []byte {
			served++
			return []byte("secret")
		}),
	}); err != nil {
		t.Fatal(err)
	}
	net.Attach("h0", host)

	var replies []wire.InvokeReply
	net.Attach("agent", simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if r, ok := msg.(wire.InvokeReply); ok {
			replies = append(replies, r)
		}
	}))

	// 1. Properly sealed invoke from alice: allowed.
	sealed, err := auth.Seal("alice", aliceKey, wire.Invoke{App: app, User: "alice", ReqID: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.Send("agent", "h0", sealed)
	sched.RunFor(5 * time.Second)
	if len(replies) != 1 || !replies[0].Allowed || served != 1 {
		t.Fatalf("sealed alice: replies=%+v served=%d", replies, served)
	}

	// 2. Bare (unsealed) invoke: rejected by an authenticated host.
	net.Send("agent", "h0", wire.Invoke{App: app, User: "alice", ReqID: 2})
	sched.RunFor(5 * time.Second)
	if len(replies) != 2 || replies[1].Allowed {
		t.Fatalf("bare invoke: replies=%+v", replies)
	}

	// 3. mallory seals with her own (unregistered) key claiming alice:
	// dropped outright, never reaches the application.
	forged, err := auth.Seal("mallory", malloryKey, wire.Invoke{App: app, User: "alice", ReqID: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.Send("agent", "h0", forged)
	sched.RunFor(5 * time.Second)
	if served != 1 {
		t.Fatal("forged invoke reached the application")
	}

	// 4. Sealed AdminOp path: alice lacks the manage right, so even a valid
	// seal is rejected by authorization.
	op, err := auth.Seal("alice", aliceKey, wire.AdminOp{
		Op: wire.OpAdd, App: app, User: "mallory", Right: wire.RightUse, Issuer: "alice", ReqID: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var adminReplies []wire.AdminReply
	net.Attach("agent2", simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if r, ok := msg.(wire.AdminReply); ok {
			adminReplies = append(adminReplies, r)
		}
	}))
	net.Send("agent2", "m0", op)
	sched.RunFor(5 * time.Second)
	if len(adminReplies) != 1 || adminReplies[0].Err == "" {
		t.Fatalf("admin replies = %+v", adminReplies)
	}
	if mgr.Has(app, "mallory", wire.RightUse) {
		t.Fatal("unauthorized admin op applied")
	}

	// 5. Give alice the manage right; now her sealed AdminOp succeeds.
	mgr.Seed(app, "alice", wire.RightManage)
	op2, err := auth.Seal("alice", aliceKey, wire.AdminOp{
		Op: wire.OpAdd, App: app, User: "bob", Right: wire.RightUse, Issuer: "alice", ReqID: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Send("agent2", "m0", op2)
	sched.RunFor(5 * time.Second)
	if !mgr.Has(app, "bob", wire.RightUse) {
		t.Fatal("authorized sealed admin op not applied")
	}

	// 6. Unauthenticated AdminOp to an authenticated manager: rejected.
	net.Send("agent2", "m0", wire.AdminOp{
		Op: wire.OpRevoke, App: app, User: "bob", Right: wire.RightUse, Issuer: "alice", ReqID: 6,
	})
	sched.RunFor(5 * time.Second)
	if !mgr.Has(app, "bob", wire.RightUse) {
		t.Fatal("bare admin op applied on authenticated manager")
	}
}

// TestMultiApplicationIndependence runs two applications with different
// manager sets and policies through shared nodes: "Access control of A is
// assumed to be independent of other applications" (§3.1).
func TestMultiApplicationIndependence(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})

	// Managers: m0 and m1 manage "wiki"; m1 and m2 manage "pay".
	mgrs := make([]*core.Manager, 3)
	for i := range mgrs {
		id := wire.NodeID(fmt.Sprintf("m%d", i))
		mgrs[i] = core.NewManager(id, NewEnv(id, net), nil, nil)
		net.Attach(id, mgrs[i])
	}
	wikiPeers := []wire.NodeID{"m0", "m1"}
	payPeers := []wire.NodeID{"m1", "m2"}
	for _, i := range []int{0, 1} {
		if err := mgrs[i].AddApp("wiki", core.ManagerAppConfig{Peers: wikiPeers, CheckQuorum: 1, Te: time.Minute}); err != nil {
			t.Fatal(err)
		}
		mgrs[i].Seed("wiki", "root", wire.RightManage)
		mgrs[i].Seed("wiki", "alice", wire.RightUse)
	}
	for _, i := range []int{1, 2} {
		if err := mgrs[i].AddApp("pay", core.ManagerAppConfig{Peers: payPeers, CheckQuorum: 2, Te: 30 * time.Second}); err != nil {
			t.Fatal(err)
		}
		mgrs[i].Seed("pay", "root", wire.RightManage)
		mgrs[i].Seed("pay", "alice", wire.RightUse)
	}

	host := core.NewHost("h0", NewEnv("h0", net), nil, nil)
	if err := host.RegisterApp("wiki", core.HostAppConfig{
		Managers: wikiPeers,
		Policy:   core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2, DefaultAllow: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := host.RegisterApp("pay", core.HostAppConfig{
		Managers: payPeers,
		Policy:   core.Policy{CheckQuorum: 2, Te: 30 * time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
	}); err != nil {
		t.Fatal(err)
	}
	net.Attach("h0", host)

	checkSync := func(app wire.AppID, user wire.UserID) core.Decision {
		var d core.Decision
		done := false
		host.Check(app, user, wire.RightUse, func(dd core.Decision) { d, done = dd, true })
		for !done && sched.Step() {
		}
		return d
	}

	// Both apps work for alice.
	if d := checkSync("wiki", "alice"); !d.Allowed {
		t.Fatalf("wiki check: %+v", d)
	}
	if d := checkSync("pay", "alice"); !d.Allowed || d.Confirmations != 2 {
		t.Fatalf("pay check: %+v", d)
	}

	// Revoking alice on "pay" (via m2) must not affect "wiki".
	var reply wire.AdminReply
	done := false
	mgrs[2].Submit(wire.AdminOp{Op: wire.OpRevoke, App: "pay", User: "alice", Right: wire.RightUse, Issuer: "root"},
		func(r wire.AdminReply) { reply, done = r, true })
	for !done && sched.Step() {
	}
	if !reply.QuorumReached {
		t.Fatalf("pay revoke: %+v", reply)
	}
	sched.RunFor(5 * time.Second) // revocation notices propagate

	if d := checkSync("pay", "alice"); d.Allowed {
		t.Fatalf("pay allowed after revoke: %+v", d)
	}
	if d := checkSync("wiki", "alice"); !d.Allowed {
		t.Fatalf("wiki affected by pay revoke: %+v", d)
	}

	// Policies apply per app: when the whole network partitions the host,
	// wiki (DefaultAllow) still serves, pay (security-first) refuses.
	net.Partition([]wire.NodeID{"h0"}, []wire.NodeID{"m0", "m1", "m2"})
	sched.RunFor(2 * time.Minute) // expire both caches
	if d := checkSync("wiki", "alice"); !d.Allowed || !d.DefaultAllowed {
		t.Fatalf("wiki during partition: %+v", d)
	}
	if d := checkSync("pay", "bobby"); d.Allowed {
		t.Fatalf("pay during partition: %+v", d)
	}
}

// TestSoakRevocationInvariant randomly drives the full system — grants,
// revocations, scripted flapping partitions, host resets — and continuously
// asserts the paper's central invariant: a user whose revocation reached
// the update quorum more than Te ago is never granted access by any host.
func TestSoakRevocationInvariant(t *testing.T) {
	const (
		numManagers = 4
		numHosts    = 3
		numUsers    = 5
		te          = 40 * time.Second
		soakFor     = 2 * time.Hour
	)
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			users := make([]wire.UserID, numUsers)
			for i := range users {
				users[i] = wire.UserID(fmt.Sprintf("u%d", i))
			}
			w, err := Build(Config{
				Managers: numManagers,
				Hosts:    numHosts,
				Policy: core.Policy{
					CheckQuorum: 2, Te: te, QueryTimeout: time.Second, MaxAttempts: 2,
				},
				Te:    te,
				Users: users,
				Net:   simnet.Config{Loss: 0.05, Seed: seed},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 100))

			// revokedAt[user] = virtual time the user's revocation reached
			// quorum (zero: currently authorized or revocation unconfirmed).
			revokedAt := map[wire.UserID]time.Time{}

			startFlaps(w, 5*time.Second, 0.08, 15*time.Second, seed)

			// Random churn: occasionally revoke or re-grant a user via a
			// random manager. Operations for one user are serialized
			// (inflight guard) so the model's view of "currently revoked"
			// is well defined; the model marks a user revoked only from the
			// revocation's quorum time, and marks them authorized again
			// optimistically at re-grant ISSUE time (the protocol may
			// legitimately serve them from the issuing manager onward).
			inflight := map[wire.UserID]bool{}
			var churn func()
			churn = func() {
				user := users[rng.Intn(numUsers)]
				mgr := rng.Intn(numManagers)
				if !inflight[user] {
					if _, isRevoked := revokedAt[user]; !isRevoked && rng.Float64() < 0.5 {
						inflight[user] = true
						w.Managers[mgr].Submit(wire.AdminOp{
							Op: wire.OpRevoke, App: w.Cfg.App, User: user, Right: wire.RightUse, Issuer: "admin",
						}, func(r wire.AdminReply) {
							if r.QuorumReached {
								revokedAt[user] = w.Sched.Now()
							}
							inflight[user] = false
						})
					} else if isRevoked && rng.Float64() < 0.5 {
						inflight[user] = true
						delete(revokedAt, user)
						w.Managers[mgr].Submit(wire.AdminOp{
							Op: wire.OpAdd, App: w.Cfg.App, User: user, Right: wire.RightUse, Issuer: "admin",
						}, func(wire.AdminReply) { inflight[user] = false })
					}
				}
				w.Sched.After(time.Duration(rng.Intn(20)+5)*time.Second, churn)
			}
			w.Sched.After(10*time.Second, churn)

			// Occasionally a host crashes and recovers with an empty cache.
			var hostChurn func()
			hostChurn = func() {
				h := rng.Intn(numHosts)
				w.Hosts[h].Reset()
				w.Sched.After(time.Duration(rng.Intn(300)+120)*time.Second, hostChurn)
			}
			w.Sched.After(90*time.Second, hostChurn)

			// Probe loop: every few seconds check a random (host, user).
			violations := 0
			var probe func()
			probe = func() {
				h := rng.Intn(numHosts)
				user := users[rng.Intn(numUsers)]
				at, isRevoked := revokedAt[user]
				probeStart := w.Sched.Now()
				w.Hosts[h].Check(w.Cfg.App, user, wire.RightUse, func(d core.Decision) {
					if !d.Allowed || d.DefaultAllowed {
						return
					}
					if isRevoked && probeStart.Sub(at) > te {
						// Re-read: a re-grant may have raced the probe.
						if cur, still := revokedAt[user]; still && cur.Equal(at) {
							violations++
							t.Errorf("host %d allowed %s %v after quorum revocation (Te=%v)",
								h, user, probeStart.Sub(at), te)
						}
					}
				})
				w.Sched.After(time.Duration(rng.Intn(4000)+500)*time.Millisecond, probe)
			}
			w.Sched.After(5*time.Second, probe)

			w.RunFor(soakFor)
			if violations > 0 {
				t.Fatalf("%d revocation-bound violations", violations)
			}
		})
	}
}

// startFlaps injects the congestion of §2.1 ("temporary network partitions
// caused mostly by network congestion can be frequent") into w for the rest
// of its run: every tick, each host-manager and manager-manager link
// independently goes down with probability p for an exponentially
// distributed outage of the given mean, drawn from a private RNG.
func startFlaps(w *World, tick time.Duration, p float64, meanOutage time.Duration, seed int64) {
	var links [][2]wire.NodeID
	for h := 0; h < w.Cfg.Hosts; h++ {
		for m := 0; m < w.Cfg.Managers; m++ {
			links = append(links, [2]wire.NodeID{HostID(h), ManagerID(m)})
		}
	}
	for a := 0; a < w.Cfg.Managers; a++ {
		for b := a + 1; b < w.Cfg.Managers; b++ {
			links = append(links, [2]wire.NodeID{ManagerID(a), ManagerID(b)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var flap func()
	flap = func() {
		for _, l := range links {
			if rng.Float64() >= p {
				continue
			}
			w.Net.SetLink(l[0], l[1], false)
			outage := time.Duration(rng.ExpFloat64() * float64(meanOutage))
			w.Sched.After(outage, func() { w.Net.SetLink(l[0], l[1], true) })
		}
		w.Sched.After(tick, flap)
	}
	w.Sched.After(tick, flap)
}

// TestCrossOriginUpdateOrdering is the deterministic regression test for
// the divergence the soak test originally exposed: an add issued at m1 is
// delayed in flight while a NEWER revoke from m0 arrives first at m2. The
// last-writer-wins rule must discard the stale add when it finally lands,
// keeping all managers converged on "revoked".
func TestCrossOriginUpdateOrdering(t *testing.T) {
	w, err := Build(Config{
		Managers: 3, Hosts: 0,
		Policy:      core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:          time.Minute,
		UpdateRetry: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Hold back every Update from m1 to m2 until released.
	hold := true
	w.Net.Filter = func(from, to wire.NodeID, msg wire.Message) bool {
		if _, isUpd := msg.(wire.Update); isUpd && from == ManagerID(1) && to == ManagerID(2) && hold {
			return false
		}
		return true
	}

	// t=0: m1 issues add(bob).
	w.Managers[1].Submit(wire.AdminOp{
		Op: wire.OpAdd, App: w.Cfg.App, User: "bob", Right: wire.RightUse, Issuer: "admin",
	}, nil)
	w.RunFor(5 * time.Second)
	if !w.Managers[0].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Fatal("add did not reach m0")
	}
	if w.Managers[2].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Fatal("add leaked to m2 through the filter")
	}

	// t=5s: m0 issues revoke(bob) — strictly newer. It reaches everyone.
	w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: "bob", Right: wire.RightUse, Issuer: "admin",
	}, nil)
	w.RunFor(5 * time.Second)
	if w.Managers[2].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Fatal("revoke did not reach m2")
	}

	// t=10s: release the held add; m1's persistent retransmission delivers
	// it to m2 AFTER the newer revoke. LWW must discard it.
	hold = false
	w.RunFor(10 * time.Second)
	for i := 0; i < 3; i++ {
		if w.Managers[i].Has(w.Cfg.App, "bob", wire.RightUse) {
			t.Errorf("manager %d regressed to the stale add", i)
		}
	}
}

// TestRefreshAhead: with RefreshAhead configured, a continuously used right
// never pays a manager round trip after the first fill — cache hits trigger
// background refreshes before expiry — while a revoked right stops
// refreshing and is dropped early.
func TestRefreshAhead(t *testing.T) {
	const te = 20 * time.Second
	w, err := Build(Config{
		Managers: 2, Hosts: 1,
		Policy: core.Policy{
			CheckQuorum: 1, Te: te, QueryTimeout: time.Second,
			MaxAttempts: 2, RefreshAhead: 8 * time.Second,
		},
		Te:    te,
		Users: []wire.UserID{"alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("initial check failed")
	}

	// Continuous use: a check every 5s for 2 minutes. With te=20s and
	// refresh window 8s, every expiry is preempted by a background refresh,
	// so every foreground decision is a cache hit.
	misses := 0
	for i := 0; i < 24; i++ {
		w.RunFor(5 * time.Second)
		d, ok := w.CheckSync(0, "alice", wire.RightUse, time.Minute)
		if !ok || !d.Allowed {
			t.Fatalf("tick %d: %+v", i, d)
		}
		if !d.CacheHit {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("%d foreground cache misses despite refresh-ahead", misses)
	}

	// Revocation: the next refresh is denied and flushes the entry early —
	// strictly before the un-refreshed expiry would have hit.
	reply, ok := w.Revoke(0, "alice", time.Minute)
	if !ok || !reply.QuorumReached {
		t.Fatalf("revoke: %+v", reply)
	}
	w.RunFor(te) // at most one refresh window passes
	d, ok := w.CheckSync(0, "alice", wire.RightUse, time.Minute)
	if !ok {
		t.Fatal("post-revoke check did not resolve")
	}
	if d.Allowed {
		t.Fatalf("allowed after revoke: %+v", d)
	}
}

// TestRefreshAheadDoesNotExtendBound: refresh-ahead must not keep a revoked
// right alive past Te when the host is partitioned (refreshes simply fail).
func TestRefreshAheadDoesNotExtendBound(t *testing.T) {
	const te = 20 * time.Second
	w, err := Build(Config{
		Managers: 2, Hosts: 1,
		Policy: core.Policy{
			CheckQuorum: 1, Te: te, QueryTimeout: time.Second,
			MaxAttempts: 2, RefreshAhead: 8 * time.Second,
		},
		Te:    te,
		Users: []wire.UserID{"alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("initial check failed")
	}
	w.PartitionHostFromManagers(0, 0, 1)
	reply, ok := w.Revoke(0, "alice", time.Minute)
	if !ok || !reply.QuorumReached {
		t.Fatalf("revoke: %+v", reply)
	}
	revokedAt := w.Sched.Now()
	// Keep hammering the cache (which keeps trying to refresh, and failing).
	for w.Sched.Now().Sub(revokedAt) < te {
		w.RunFor(2 * time.Second)
		w.CheckSync(0, "alice", wire.RightUse, time.Minute)
	}
	w.RunFor(time.Second)
	if d, _ := w.CheckSync(0, "alice", wire.RightUse, time.Minute); d.Allowed {
		t.Fatalf("refresh-ahead extended access past Te: %+v", d)
	}
}

// TestTemporalAuthorization: an Add with a validity period (§4.2's temporal
// authorizations realized on top of the protocol) self-revokes across the
// whole manager group when the period ends — even if the original issuer
// has been deprovisioned in the meantime.
func TestTemporalAuthorization(t *testing.T) {
	w, err := Build(Config{
		Managers: 3, Hosts: 1,
		Policy: core.Policy{CheckQuorum: 2, Te: 30 * time.Second, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := w.SubmitSync(0, wire.AdminOp{
		Op: wire.OpAdd, App: w.Cfg.App, User: "guest", Right: wire.RightUse,
		ValidFor: 2 * time.Minute,
	}, time.Minute)
	if !ok || !reply.QuorumReached {
		t.Fatalf("temporal grant: %+v", reply)
	}
	if d, ok := w.CheckSync(0, "guest", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatalf("guest not granted: %+v", d)
	}

	// The admin who issued the grant is deprovisioned before expiry; the
	// scheduled revoke must still fire.
	reply, ok = w.SubmitSync(1, wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: "admin", Right: wire.RightManage,
	}, time.Minute)
	if !ok || !reply.QuorumReached {
		t.Fatalf("admin deprovision: %+v", reply)
	}

	w.RunFor(3 * time.Minute)
	for i := 0; i < 3; i++ {
		if w.Managers[i].Has(w.Cfg.App, "guest", wire.RightUse) {
			t.Errorf("manager %d still grants after validity period", i)
		}
	}
	// Host side: the notice + expiration drop the cached copy; a fresh
	// check is denied.
	if d, ok := w.CheckSync(0, "guest", wire.RightUse, time.Minute); !ok || d.Allowed {
		t.Fatalf("guest still allowed after validity period: %+v", d)
	}
}

func TestTemporalAuthorizationNegativeRejected(t *testing.T) {
	w, err := Build(Config{
		Managers: 1, Hosts: 0,
		Policy: core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 1},
		Te:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := w.SubmitSync(0, wire.AdminOp{
		Op: wire.OpAdd, App: w.Cfg.App, User: "x", Right: wire.RightUse, ValidFor: -time.Second,
	}, time.Minute)
	if !ok || reply.Err == "" {
		t.Fatalf("negative ValidFor accepted: %+v", reply)
	}
}

// TestNodeStats verifies the operational counters across a grant / cache
// hit / revoke / deny sequence.
func TestNodeStats(t *testing.T) {
	w, err := Build(Config{
		Managers: 2, Hosts: 1,
		Policy: core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
		Te:     time.Minute,
		Users:  []wire.UserID{"alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.CheckSync(0, "alice", wire.RightUse, time.Minute)   // quorum allow
	w.CheckSync(0, "alice", wire.RightUse, time.Minute)   // cache hit
	w.CheckSync(0, "mallory", wire.RightUse, time.Minute) // deny
	reply, _ := w.Revoke(0, "alice", time.Minute)
	if !reply.QuorumReached {
		t.Fatal("revoke failed")
	}
	w.RunFor(2 * time.Second)

	hs := w.Hosts[0].Stats()
	if hs.Checks != 3 || hs.Allowed != 1 || hs.CacheHits != 1 || hs.Denied != 1 {
		t.Errorf("host stats = %+v", hs)
	}
	if hs.RevokeNotices != 1 {
		t.Errorf("RevokeNotices = %d, want 1", hs.RevokeNotices)
	}

	ms0 := w.Managers[0].Stats()
	if ms0.UpdatesIssued != 1 || ms0.QuorumsReached != 1 {
		t.Errorf("manager0 stats = %+v", ms0)
	}
	if ms0.QueriesServed == 0 {
		t.Error("manager0 served no queries")
	}
	ms1 := w.Managers[1].Stats()
	if ms1.UpdatesApplied != 1 {
		t.Errorf("manager1 UpdatesApplied = %d, want 1", ms1.UpdatesApplied)
	}
	if ms0.OutstandingUpdates != 0 || ms0.PendingNotices != 0 {
		t.Errorf("manager0 leftovers: %+v", ms0)
	}
}

// TestSyncRetryUntilPeerReachable covers the recovering manager's
// SyncRequest retry loop: the first requests are lost to a partition; after
// healing, the periodic retry completes the sync.
func TestSyncRetryUntilPeerReachable(t *testing.T) {
	w, err := Build(Config{
		Managers: 2, Hosts: 0,
		Policy: core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 1},
		Te:     time.Minute,
		Users:  []wire.UserID{"alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.PartitionManagerPair(0, 1)
	w.Managers[1].Recover()
	w.RunFor(10 * time.Second)
	if w.Managers[1].Stats().SyncingApps == 0 {
		t.Fatal("sync completed through a cut link")
	}
	w.Heal()
	w.RunFor(10 * time.Second) // next SyncRetry tick reaches the peer
	if w.Managers[1].Stats().SyncingApps != 0 {
		t.Fatal("sync retry did not complete after heal")
	}
	if !w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Error("synced state incomplete")
	}
}
