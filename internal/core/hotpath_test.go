package core

// Tests for the cache-hit path, which decides without Host.mu (see
// Host.cacheHit): what its audit evidence cites after a refresh, and that
// taking it off the lock kept the ordering and the exactness the locked
// path had. The concurrency tests mean something only under -race;
// scripts/ci.sh runs them at -race -count=5.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// lastRound returns the queries of the most recent round, one per manager
// asked.
func lastRound(t *testing.T, env *fakeEnv) []wire.Envelope {
	t.Helper()
	nonce := env.lastQueryNonce(t)
	var round []wire.Envelope
	for _, e := range env.sent {
		if q, ok := e.Msg.(wire.Query); ok && q.Nonce == nonce {
			round = append(round, e)
		}
	}
	return round
}

// answerRound replies to every query of round with the given verdict (a
// one-minute grant), from the manager it was sent to.
func answerRound(h *Host, round []wire.Envelope, granted bool) {
	for _, e := range round {
		q := e.Msg.(wire.Query)
		h.HandleMessage(e.To, wire.Response{
			App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: granted, Expire: time.Minute,
		})
	}
}

// TestCacheHitAuditCitesOnlyCurrentVouchers: with refresh-ahead and the
// rotating first-round window, successive refreshes are confirmed by
// different manager pairs (m0,m1 then m2,m0 then m1,m2). The cache-hit
// record must cite the C=2 managers that confirmed the entry's current
// limit, not every manager that ever vouched for the key.
func TestCacheHitAuditCitesOnlyCurrentVouchers(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	rec := audit.NewRecorder("h0", 64, env.Now)
	h.SetAudit(rec)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy: Policy{
			CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2,
			Te: time.Minute, RefreshAhead: 20 * time.Second,
		},
	}); err != nil {
		t.Fatal(err)
	}
	nop := func(Decision) {}
	lastHit := func() audit.Record {
		t.Helper()
		recs := rec.Snapshot()
		r := recs[len(recs)-1]
		if r.Reason != audit.ReasonCacheHit {
			t.Fatalf("last record is %v, want a cache hit", r.Reason)
		}
		return r
	}

	h.Check("a", "u", wire.RightUse, nop)
	first := lastRound(t, env)
	if len(first) != 2 {
		t.Fatalf("first round asked %d managers, want C=2", len(first))
	}
	answerRound(h, first, true)
	for refresh := 1; refresh <= 2; refresh++ {
		env.advance(45 * time.Second) // inside the entry's last 20s
		rounds := h.Stats().QueryRounds
		h.Check("a", "u", wire.RightUse, nop)
		if h.Stats().QueryRounds != rounds+1 {
			t.Fatalf("refresh %d: the hit started no refresh-ahead round", refresh)
		}
		before := lastHit()
		answerRound(h, lastRound(t, env), true)
		h.Check("a", "u", wire.RightUse, nop)
		after := lastHit()
		if !after.Expiry.After(before.Expiry) {
			t.Fatalf("refresh %d did not extend the entry: %v then %v", refresh, before.Expiry, after.Expiry)
		}
		if after.Granters != 2 {
			t.Errorf("refresh %d: cache hit cites %d granters for a limit two managers confirmed", refresh, after.Granters)
		}
	}
}

// hotHost is a host with every observer attached (metrics, audit, a bounded
// trace collector) and user "u" warm in its cache, on an environment that
// tolerates concurrent callers.
type hotHost struct {
	h    *Host
	lenv *lockedEnv
	reg  *telemetry.Registry
	tel  *HostTelemetry
	aud  *audit.Recorder
}

func newHotHost(t *testing.T, policy Policy) *hotHost {
	t.Helper()
	lenv := newLockedEnv()
	hh := &hotHost{lenv: lenv, reg: telemetry.NewRegistry()}
	hh.h = NewHost("h0", lenv, trace.NewCollector(64), nil)
	hh.tel = InstrumentHost(hh.reg, nil, hh.h)
	hh.aud = audit.NewRecorder("h0", 64, lenv.Now)
	hh.h.SetAudit(hh.aud)
	managers := []wire.NodeID{"m0", "m1", "m2"}
	if err := hh.h.RegisterApp("a", HostAppConfig{Managers: managers, Policy: policy}); err != nil {
		t.Fatal(err)
	}
	hh.h.Check("a", "u", wire.RightUse, func(Decision) {})
	hh.answer(t, true)
	if hh.h.CacheGranters("a", "u", wire.RightUse) != policy.CheckQuorum {
		t.Fatal("warm-up did not cache the grant")
	}
	return hh
}

// answer replies to the most recent round from every manager it asked.
func (hh *hotHost) answer(t *testing.T, granted bool) {
	t.Helper()
	hh.lenv.mu.Lock()
	round := lastRound(t, hh.lenv.e)
	hh.lenv.mu.Unlock()
	answerRound(hh.h, round, granted)
}

// TestNoCacheHitAfterFlushReturns: callers hammer a warm key while the test
// removes the entry — by a manager's RevokeNotice, by Reset, by the full
// manager set denying a refresh. A hit's linearization point is its cache
// probe, so once the removing call has returned no check that starts
// afterwards may report a cache hit; and with every caller done, the four
// views of "how many decisions" — HostStats, the audit ring, the outcome
// counters, the reason counters — agree exactly, although hits are counted
// outside Host.mu.
func TestNoCacheHitAfterFlushReturns(t *testing.T) {
	policy := Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute}
	// Grants last a minute (answerRound), so with this policy every hit
	// is inside the refresh window and the first one starts a refresh round.
	refreshing := policy
	refreshing.Te, refreshing.RefreshAhead = time.Hour, 30*time.Minute

	for _, tc := range []struct {
		name   string
		policy Policy
		flush  func(t *testing.T, hh *hotHost)
	}{
		{"revoke-notice", policy, func(t *testing.T, hh *hotHost) {
			hh.h.HandleMessage("m0", wire.RevokeNotice{App: "a", User: "u", Right: wire.RightUse})
		}},
		{"reset", policy, func(t *testing.T, hh *hotHost) { hh.h.Reset() }},
		{"quorum-deny", refreshing, func(t *testing.T, hh *hotHost) {
			hh.answer(t, false) // C asked, both deny: the round widens to the full set
			hh.answer(t, false) // the full set denies: entry removed, refresh finishes denied
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hh := newHotHost(t, tc.policy)
			h := hh.h
			var flushed atomic.Bool
			var hits atomic.Uint64
			const callers, afterFlush = 4, 50
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left := afterFlush; left > 0; {
						startedAfter := flushed.Load()
						h.Check("a", "u", wire.RightUse, func(d Decision) {
							if !d.CacheHit {
								t.Errorf("unexpected decision %+v (post-flush checks stay in flight)", d)
								return
							}
							hits.Add(1)
							if startedAfter {
								t.Error("cache hit for a check started after the flush returned")
							}
						})
						if startedAfter {
							left--
						}
					}
				}()
			}
			for h.Stats().CacheHits < 2000 { // the flush lands mid-load
				runtime.Gosched()
			}
			tc.flush(t, hh)
			flushed.Store(true)
			wg.Wait()

			st := h.Stats()
			if st.CacheHits != hits.Load() {
				t.Errorf("Stats().CacheHits = %d, callers saw %d", st.CacheHits, hits.Load())
			}
			if st.CacheLen != 0 {
				t.Errorf("entry survived the flush: cache holds %d", st.CacheLen)
			}
			var byOutcome, byReason uint64
			outcomes := hh.reg.CounterVec("wanac_host_checks_total", "", "outcome")
			for _, name := range outcomeNames {
				byOutcome += outcomes.With(name).Value()
			}
			for _, n := range ReasonCounts(hh.reg) {
				byReason += n
			}
			if dec := hh.aud.Decisions(); st.Checks != dec || st.Checks != byOutcome || st.Checks != byReason {
				t.Errorf("decisions disagree: Stats().Checks %d, audit records %d, wanac_host_checks_total %d, wanac_host_check_reasons_total %d",
					st.Checks, dec, byOutcome, byReason)
			}
		})
	}
}

// TestViewPublicationUnderLoad: SetAudit, SetTelemetry and RegisterApp
// republish the view a check reads without a lock. Flipping all three while
// callers hit the cache must be race-clean, must never disturb a decision,
// and a published app must be usable by the very next check.
func TestViewPublicationUnderLoad(t *testing.T) {
	hh := newHotHost(t, Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute})
	h := hh.h
	var stop atomic.Bool
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.Check("a", "u", wire.RightUse, func(d Decision) {
					if !d.Allowed || !d.CacheHit {
						t.Errorf("decision %+v, want a cache hit", d)
					}
					hits.Add(1)
				})
			}
		}()
	}
	// The flips below take microseconds: on a busy box they used to finish
	// before any caller had been scheduled, and the test then failed on
	// "no hits" without having tested anything. Start once callers hit.
	for hits.Load() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			h.SetAudit(nil)
			h.SetTelemetry(nil)
		} else {
			h.SetAudit(hh.aud)
			h.SetTelemetry(hh.tel)
		}
		app := wire.AppID(fmt.Sprintf("extra%d", i))
		if err := h.RegisterApp(app, HostAppConfig{
			Managers: []wire.NodeID{"m0", "m1", "m2"},
			Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
		}); err != nil {
			t.Fatal(err)
		}
		rounds := h.Stats().QueryRounds
		h.Check(app, "u", wire.RightUse, func(Decision) {})
		if h.Stats().QueryRounds != rounds+1 {
			t.Fatalf("check on just-registered app %s started no round", app)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := h.RegisterApp("a", HostAppConfig{Managers: []wire.NodeID{"m0"}}); err == nil {
		t.Error("re-registering an app succeeded")
	}
	if st := h.Stats(); st.CacheHits != hits.Load() || st.CacheHits == 0 {
		t.Errorf("Stats().CacheHits = %d, callers saw %d", st.CacheHits, hits.Load())
	}
}
