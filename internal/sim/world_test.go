package sim

import (
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

const (
	testTimeout = 30 * time.Second // generous simulated-time deadline
	qt          = 500 * time.Millisecond
)

func basePolicy(c int) core.Policy {
	return core.Policy{CheckQuorum: c, Te: time.Minute, QueryTimeout: qt, MaxAttempts: 3}
}

func build(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGrantCheckAllow(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if !d.Allowed || d.CacheHit || d.DefaultAllowed {
		t.Fatalf("decision = %+v", d)
	}
	if d.Confirmations < 2 {
		t.Errorf("confirmations = %d, want >= C=2", d.Confirmations)
	}
	if d.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", d.Attempts)
	}

	// Second check: served from cache with no further queries.
	sent := w.Net.Stats().ByKind["query"]
	d2, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d2.Allowed || !d2.CacheHit {
		t.Fatalf("cached decision = %+v ok=%v", d2, ok)
	}
	if after := w.Net.Stats().ByKind["query"]; after != sent {
		t.Errorf("cache hit sent %d extra queries", after-sent)
	}
}

func TestDenyUnknownUser(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
	})
	d, ok := w.CheckSync(0, "mallory", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if d.Allowed {
		t.Fatalf("unknown user allowed: %+v", d)
	}
	// Denial must be quick: the first round's C=2 denials are the M-C+1
	// that make C grants impossible, so the check ends in that round, with
	// the third manager never asked.
	if d.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (denied by the first round)", d.Attempts)
	}
	if q := w.Net.Stats().ByKind["query"]; q != 2 {
		t.Errorf("queries sent = %d, want 2", q)
	}
}

func TestRevokeNoticeFlushesCache(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("initial check failed: %+v", d)
	}
	if w.Hosts[0].CacheLen() == 0 {
		t.Fatal("nothing cached")
	}

	reply, ok := w.Revoke(0, "alice", testTimeout)
	if !ok || !reply.QuorumReached {
		t.Fatalf("revoke reply = %+v ok=%v", reply, ok)
	}
	// Let the revocation notices propagate.
	w.RunFor(time.Second)
	if n := w.Tracer.Count(trace.EventRevokeApplied); n == 0 {
		t.Error("no revoke-applied events at hosts")
	}

	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("post-revoke check did not complete")
	}
	if d.Allowed {
		t.Fatalf("access allowed after revocation: %+v", d)
	}
}

// TestRevocationTimeBound is the protocol's central guarantee (§3.2): once
// a revocation reaches an update quorum at time t, no host allows access
// after t+Te, even if the host is partitioned from every manager for the
// entire interval.
func TestRevocationTimeBound(t *testing.T) {
	const te = 30 * time.Second
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: te,
		Users: []wire.UserID{"alice"},
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("initial check failed: %+v", d)
	}

	// Partition the host from every manager: revocation notices cannot
	// reach it, so only expiration can revoke.
	w.PartitionHostFromManagers(0, 0, 1, 2)

	reply, ok := w.Revoke(0, "alice", testTimeout)
	if !ok || !reply.QuorumReached {
		t.Fatalf("revoke reply = %+v", reply)
	}
	revokedAt := w.Sched.Now()

	// Just before the bound the cached entry may legally still grant.
	// At/after the bound it must not.
	w.Sched.RunUntil(revokedAt.Add(te + time.Millisecond))
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("post-bound check did not complete")
	}
	if d.Allowed {
		t.Fatalf("access allowed %v after quorum revocation (Te=%v): %+v",
			w.Sched.Now().Sub(revokedAt), te, d)
	}
}

// TestRevocationTimeBoundSlowClock repeats the bound check with the host
// clock running at the slowest legal rate b: te = Te*b local units then
// take exactly Te real units.
func TestRevocationTimeBoundSlowClock(t *testing.T) {
	const (
		te = 30 * time.Second
		b  = 0.8
	)
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy:         core.Policy{CheckQuorum: 1, Te: te, ClockBound: b, QueryTimeout: qt, MaxAttempts: 3},
		Te:             te,
		ClockBound:     b,
		Users:          []wire.UserID{"alice"},
		HostClockRates: []float64{b},
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("initial check failed: %+v", d)
	}
	w.PartitionHostFromManagers(0, 0, 1)
	reply, ok := w.Revoke(0, "alice", testTimeout)
	if !ok || !reply.QuorumReached {
		t.Fatalf("revoke reply = %+v", reply)
	}
	revokedAt := w.Sched.Now()
	w.Sched.RunUntil(revokedAt.Add(te + time.Second))
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || d.Allowed {
		t.Fatalf("slow-clock host allowed past Te: %+v ok=%v", d, ok)
	}
}

func TestHighAvailabilityDefaultAllow(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: core.Policy{
			CheckQuorum: 1, Te: time.Minute, QueryTimeout: qt,
			MaxAttempts: 2, DefaultAllow: true,
		},
		Te:    time.Minute,
		Users: []wire.UserID{"alice"},
	})
	w.PartitionHostFromManagers(0, 0, 1)
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if !d.Allowed || !d.DefaultAllowed {
		t.Fatalf("decision = %+v, want default allow after R attempts", d)
	}
	if d.Attempts != 2 {
		t.Errorf("attempts = %d, want R=2", d.Attempts)
	}
	if w.Tracer.Count(trace.EventAccessDefault) != 1 {
		t.Error("missing access-default trace event")
	}
}

func TestSecurityFirstDeniesWhenUnreachable(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1),
		Te:     time.Minute,
		Users:  []wire.UserID{"alice"},
	})
	w.PartitionHostFromManagers(0, 0, 1)
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if d.Allowed {
		t.Fatalf("security-first policy allowed during partition: %+v", d)
	}
	if d.Attempts != 3 {
		t.Errorf("attempts = %d, want MaxAttempts=3", d.Attempts)
	}
}

// TestCheckQuorumBoundary verifies §3.3's quorum arithmetic against the
// live protocol: with M=5, C=3, the host succeeds when exactly C managers
// are reachable and fails when only C-1 are.
func TestCheckQuorumBoundary(t *testing.T) {
	const m, c = 5, 3
	for _, tc := range []struct {
		name      string
		cut       []int
		wantAllow bool
	}{
		{"exactly C reachable", []int{0, 1}, true},
		{"C-1 reachable", []int{0, 1, 2}, false},
		{"all reachable", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := build(t, Config{
				Managers: m, Hosts: 1,
				Policy: basePolicy(c), Te: time.Minute,
				Users: []wire.UserID{"alice"},
			})
			w.PartitionHostFromManagers(0, tc.cut...)
			d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
			if !ok {
				t.Fatal("check did not complete")
			}
			if d.Allowed != tc.wantAllow {
				t.Fatalf("allowed = %v, want %v (%+v)", d.Allowed, tc.wantAllow, d)
			}
		})
	}
}

// TestQuorumIntersectionPreventsStaleGrant: once a revocation reaches the
// update quorum M-C+1, at most C-1 managers can still be unaware, so no
// check quorum of C all-granting managers can exist.
func TestQuorumIntersectionPreventsStaleGrant(t *testing.T) {
	const m, c = 5, 3
	w := build(t, Config{
		Managers: m, Hosts: 1,
		Policy: basePolicy(c), Te: time.Minute,
		Users:            []wire.UserID{"alice"},
		MaxUpdateRetries: 1, // no retransmission: the partition is permanent
	})
	// Partition managers 3,4 away from manager 0 (the revoker) before the
	// revocation: they keep believing alice is authorized.
	w.PartitionManagerPair(0, 3)
	w.PartitionManagerPair(0, 4)
	reply, ok := w.Revoke(0, "alice", testTimeout)
	if !ok {
		t.Fatal("revoke did not resolve")
	}
	if !reply.QuorumReached {
		t.Fatalf("revoke should reach quorum via managers 1,2: %+v", reply)
	}
	// Host can reach everyone; managers 3,4 grant, 0,1,2 deny. Only 2 < C
	// grants possible: access must be denied.
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if d.Allowed {
		t.Fatalf("stale grant assembled a check quorum despite update quorum: %+v", d)
	}
}

// TestUpdateDisseminationHealsPartition: a revoke issued during a manager
// partition reaches the partitioned peer via persistent retransmission
// after the partition heals (§3.3).
func TestUpdateDisseminationHealsPartition(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 0,
		Policy: basePolicy(1), Te: time.Minute,
		Users:       []wire.UserID{"alice"},
		UpdateRetry: time.Second,
	})
	w.PartitionManagerPair(0, 1)
	reply, ok := w.SubmitSync(0, wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: "alice", Right: wire.RightUse,
	}, 5*time.Second)
	// C=1 means the update quorum is M-C+1 = 2: both managers. With the
	// partition up the quorum cannot complete yet.
	if ok && reply.QuorumReached {
		t.Fatalf("quorum reported during partition: %+v", reply)
	}
	if w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) == false {
		t.Fatal("peer applied update through a cut link")
	}

	w.Heal()
	w.RunFor(10 * time.Second) // a few retransmission rounds
	if w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Error("revoke never reached the healed peer")
	}
}

// TestInOrderApplication: if update k is lost and k+1 arrives first, the
// peer buffers k+1 and applies both in issue order after retransmission.
func TestInOrderApplication(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 0,
		Policy: basePolicy(1), Te: time.Minute,
		UpdateRetry: time.Second,
	})
	// Drop only the first transmission of the first update (add bob).
	dropped := false
	w.Net.Filter = func(_, _ wire.NodeID, msg wire.Message) bool {
		if u, ok := msg.(wire.Update); ok && u.Op == wire.OpAdd && !dropped {
			dropped = true
			return false
		}
		return true
	}
	w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpAdd, App: w.Cfg.App, User: "bob", Right: wire.RightUse, Issuer: "admin",
	}, nil)
	w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: "bob", Right: wire.RightUse, Issuer: "admin",
	}, nil)
	w.RunFor(10 * time.Second)
	if !dropped {
		t.Fatal("filter never dropped the add update")
	}
	// Correct in-order outcome: add then revoke = no right. Out-of-order
	// would leave the add applied last (bob authorized).
	if w.Managers[1].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Error("updates applied out of order at peer")
	}
	if w.Managers[0].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Error("origin state wrong")
	}
}

func TestManagerRecoverySync(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	if _, ok := w.Grant(0, "bob", testTimeout); !ok {
		t.Fatal("grant did not resolve")
	}
	w.RunFor(5 * time.Second)

	// Crash manager 2, then recover it: it must refuse queries until it
	// has synced, then serve the post-crash state including bob.
	w.Net.Crash(ManagerID(2))
	w.RunFor(time.Second)
	w.Net.Recover(ManagerID(2))
	w.Managers[2].Recover()
	if !w.Managers[2].Syncing(w.Cfg.App) {
		t.Fatal("recovering manager not in syncing state")
	}
	w.RunFor(5 * time.Second)
	if w.Managers[2].Syncing(w.Cfg.App) {
		t.Fatal("manager still syncing after recovery window")
	}
	if !w.Managers[2].Has(w.Cfg.App, "bob", wire.RightUse) {
		t.Error("recovered manager missing disseminated grant")
	}
	if !w.Managers[2].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Error("recovered manager missing seeded grant")
	}
	if w.Tracer.Count(trace.EventSynced) == 0 {
		t.Error("no synced trace event")
	}
}

func TestManagerRefusesQueriesWhileSyncing(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	// Cut manager 1 from its peer so sync cannot complete, then recover it.
	w.PartitionManagerPair(0, 1)
	w.Managers[1].Recover()
	// Host can reach both managers but m1 answers Frozen: C=2 unreachable.
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if d.Allowed {
		t.Fatalf("syncing manager contributed to quorum: %+v", d)
	}
	if !d.Frozen {
		t.Error("decision should record a frozen response")
	}
}

func TestHostRecoveryClearsCache(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatal("initial check failed")
	}
	if w.Hosts[0].CacheLen() == 0 {
		t.Fatal("nothing cached")
	}
	w.Hosts[0].Reset() // §3.4: recovery initializes ACL_cache to null
	if w.Hosts[0].CacheLen() != 0 {
		t.Error("cache survived recovery")
	}
	// The normal algorithm refills it.
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed || d.CacheHit {
		t.Fatalf("post-recovery check = %+v", d)
	}
}

func TestFreezeStrategy(t *testing.T) {
	const ti = 5 * time.Second
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy:         basePolicy(1),
		Te:             time.Minute,
		FreezeTi:       ti,
		HeartbeatEvery: time.Second,
		Users:          []wire.UserID{"alice"},
	})
	// Warm-up: everyone reachable, checks succeed.
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatal("warm-up check failed")
	}

	// Partition manager 2 from managers 0 and 1 for longer than Ti.
	w.PartitionManagerPair(0, 2)
	w.PartitionManagerPair(1, 2)
	w.RunFor(ti + 3*time.Second)
	if !w.Managers[0].Frozen(w.Cfg.App) || !w.Managers[1].Frozen(w.Cfg.App) {
		t.Fatal("managers 0/1 did not freeze after Ti")
	}
	// Manager 2 also cannot see its peers: frozen too.
	if !w.Managers[2].Frozen(w.Cfg.App) {
		t.Error("isolated manager did not freeze")
	}

	// While frozen, even a fresh (uncached) legitimate check fails.
	w.Hosts[0].Reset()
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("frozen-phase check did not complete")
	}
	if d.Allowed {
		t.Fatalf("access allowed while frozen: %+v", d)
	}

	// Heal: managers unfreeze and availability returns.
	w.Heal()
	w.RunFor(5 * time.Second)
	if w.Managers[0].Frozen(w.Cfg.App) {
		t.Fatal("manager 0 still frozen after heal")
	}
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("post-heal check failed: %+v", d)
	}
	if w.Tracer.Count(trace.EventFrozen) == 0 || w.Tracer.Count(trace.EventUnfrozen) == 0 {
		t.Error("missing freeze/unfreeze trace events")
	}
}

func TestNameServiceResolution(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy:         basePolicy(1),
		Te:             time.Minute,
		Users:          []wire.UserID{"alice"},
		UseNameService: true,
		NameServiceTTL: time.Hour,
	})
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed {
		t.Fatalf("name-service check failed: %+v", d)
	}
	if got := w.Net.Stats().ByKind["resolve-request"]; got != 1 {
		t.Errorf("resolve requests = %d, want 1", got)
	}
	// Within the TTL no further resolution happens.
	w.Hosts[0].Reset()
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("second check failed: %+v", d)
	}
	if got := w.Net.Stats().ByKind["resolve-request"]; got != 1 {
		t.Errorf("resolve requests after cached set = %d, want 1", got)
	}
}

func TestNameServiceTTLTriggersRequery(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy:         basePolicy(1),
		Te:             time.Minute,
		Users:          []wire.UserID{"alice"},
		UseNameService: true,
		NameServiceTTL: 10 * time.Second,
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatal("first check failed")
	}
	w.RunFor(11 * time.Second)
	w.Hosts[0].Reset() // force a cache miss so the manager set is consulted
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatalf("post-TTL check failed: %+v", d)
	}
	if got := w.Net.Stats().ByKind["resolve-request"]; got < 2 {
		t.Errorf("resolve requests = %d, want >= 2 after TTL expiry", got)
	}
}

func TestNameServiceUnreachableDenies(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy:         basePolicy(1),
		Te:             time.Minute,
		Users:          []wire.UserID{"alice"},
		UseNameService: true,
	})
	w.Net.SetLink(HostID(0), NameID, false)
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok {
		t.Fatal("check did not complete")
	}
	if d.Allowed {
		t.Fatalf("allowed without resolving managers: %+v", d)
	}
}

// TestComponentWrapper reproduces Figure 1's claim: the application behind
// the wrapper sees only authorized traffic.
func TestComponentWrapper(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	reply, ok := w.InvokeSync(0, "alice", []byte("ping"), testTimeout)
	if !ok || !reply.Allowed {
		t.Fatalf("authorized invoke failed: %+v ok=%v", reply, ok)
	}
	if string(reply.Output) != "ok:ping" {
		t.Errorf("application output = %q", reply.Output)
	}
	if w.AppCalls[0] != 1 {
		t.Errorf("application served %d calls, want 1", w.AppCalls[0])
	}

	reply, ok = w.InvokeSync(0, "mallory", []byte("pwn"), testTimeout)
	if !ok {
		t.Fatal("unauthorized invoke did not resolve")
	}
	if reply.Allowed {
		t.Fatal("unauthorized invoke allowed")
	}
	if w.AppCalls[0] != 1 {
		t.Errorf("unauthorized traffic reached the application (%d calls)", w.AppCalls[0])
	}
}

func TestForceApply(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 0,
		Policy: basePolicy(1), Te: time.Minute,
		Users:       []wire.UserID{"alice"},
		UpdateRetry: time.Second,
	})
	w.PartitionManagerPair(0, 1)
	// Issue a revoke at m0; it cannot reach m1.
	w.Managers[0].Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: "alice", Right: wire.RightUse, Issuer: "admin",
	}, nil)
	w.RunFor(3 * time.Second)
	if !w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Fatal("update crossed a cut link")
	}

	// A human operator applies it manually at m1 (§3.3).
	if err := w.Managers[1].ForceApply(wire.Update{
		Seq: wire.UpdateSeq{Origin: ManagerID(0), Counter: 1},
		Op:  wire.OpRevoke, App: w.Cfg.App, User: "alice", Right: wire.RightUse,
	}); err != nil {
		t.Fatal(err)
	}
	if w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Fatal("forced revoke not applied")
	}

	// When the partition heals and the original update arrives, it must not
	// be applied twice (no panic, state unchanged) and must be acked.
	w.Heal()
	w.RunFor(5 * time.Second)
	if w.Managers[1].Has(w.Cfg.App, "alice", wire.RightUse) {
		t.Error("state regressed after duplicate delivery")
	}
}

func TestCoalescedChecks(t *testing.T) {
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	var decisions []core.Decision
	for i := 0; i < 5; i++ {
		w.Hosts[0].Check(w.Cfg.App, "alice", wire.RightUse, func(d core.Decision) {
			decisions = append(decisions, d)
		})
	}
	w.RunFor(5 * time.Second)
	if len(decisions) != 5 {
		t.Fatalf("decisions = %d, want 5", len(decisions))
	}
	for i, d := range decisions {
		if !d.Allowed {
			t.Errorf("decision %d denied: %+v", i, d)
		}
	}
	// All five checks share one protocol exchange: one first-round query
	// (C=1), not five.
	if q := w.Net.Stats().ByKind["query"]; q != 1 {
		t.Errorf("queries sent = %d, want 1 (coalesced, staged round)", q)
	}
}

func TestExpiredEntryRequiresRecheck(t *testing.T) {
	const te = 10 * time.Second
	w := build(t, Config{
		Managers: 2, Hosts: 1,
		Policy: basePolicy(1), Te: te,
		Users: []wire.UserID{"alice"},
	})
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout); !ok || !d.Allowed {
		t.Fatal("initial check failed")
	}
	w.RunFor(te + time.Second)
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed {
		t.Fatalf("post-expiry recheck failed: %+v", d)
	}
	if d.CacheHit {
		t.Error("expired entry served from cache")
	}
	if w.Tracer.Count(trace.EventCacheExpired) == 0 {
		t.Error("no cache-expired trace event")
	}
}

func TestLossyNetworkEventuallySucceeds(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: qt, MaxAttempts: 10},
		Te:     time.Minute,
		Users:  []wire.UserID{"alice"},
		Net:    simnet.Config{Loss: 0.3, Seed: 42},
	})
	d, ok := w.CheckSync(0, "alice", wire.RightUse, 2*time.Minute)
	if !ok {
		t.Fatal("check did not complete")
	}
	if !d.Allowed {
		t.Fatalf("check failed on lossy network: %+v", d)
	}
}

func TestManagerCrashDoesNotBlockOthers(t *testing.T) {
	w := build(t, Config{
		Managers: 3, Hosts: 1,
		Policy: basePolicy(2), Te: time.Minute,
		Users: []wire.UserID{"alice"},
	})
	w.Net.Crash(ManagerID(0))
	d, ok := w.CheckSync(0, "alice", wire.RightUse, testTimeout)
	if !ok || !d.Allowed {
		t.Fatalf("check failed with one crashed manager: %+v", d)
	}
}
