package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wanac/internal/wire"
)

// lockedEnv wraps fakeEnv with a mutex so tests can drive a Host from
// several goroutines (fakeEnv itself is single-threaded by design).
type lockedEnv struct {
	mu sync.Mutex
	e  *fakeEnv
}

func newLockedEnv() *lockedEnv { return &lockedEnv{e: newFakeEnv()} }

func (l *lockedEnv) Now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.Now()
}

func (l *lockedEnv) Send(to wire.NodeID, msg wire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.e.Send(to, msg)
}

func (l *lockedEnv) SetTimer(d time.Duration, fn func()) TimerHandle {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.e.SetTimer(d, fn)
}

// grantIntoCache drives one check through a quorum of responses so the host
// caches the grant with the given expiration period.
func grantIntoCache(t *testing.T, env *fakeEnv, h *Host, managers []wire.NodeID, user wire.UserID, expire time.Duration) {
	t.Helper()
	decided := false
	h.Check("a", user, wire.RightUse, func(d Decision) {
		if !d.Allowed {
			t.Fatalf("grant for %s denied: %+v", user, d)
		}
		decided = true
	})
	nonce := env.lastQueryNonce(t)
	for _, m := range managers {
		h.HandleMessage(m, wire.Response{
			App: "a", User: user, Right: wire.RightUse, Nonce: nonce, Granted: true, Expire: expire,
		})
	}
	if !decided {
		t.Fatalf("check for %s never decided", user)
	}
}

// TestHostPurgeExpired: purging drops exactly the entries past their limit
// on the host clock and leaves fresh ones cached.
func TestHostPurgeExpired(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "short", 30*time.Second)
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "long", 5*time.Minute)
	if n := len(h.CacheSnapshot()); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if n := h.PurgeExpired(); n != 0 {
		t.Fatalf("purged %d fresh entries", n)
	}

	env.advance(time.Minute) // past "short", well before "long"
	if n := h.PurgeExpired(); n != 1 {
		t.Fatalf("purged %d entries, want 1", n)
	}
	if n := len(h.CacheSnapshot()); n != 1 {
		t.Fatalf("cache holds %d entries after purge, want 1", n)
	}
	now := h.LocalNow()
	for _, e := range h.CacheSnapshot() {
		if e.Expired(now) {
			t.Fatalf("expired entry survived the purge: %+v", e)
		}
		if e.User != "long" {
			t.Fatalf("wrong entry survived: %+v", e)
		}
	}
	// Idempotent: a second purge finds nothing.
	if n := h.PurgeExpired(); n != 0 {
		t.Fatalf("second purge removed %d entries", n)
	}
}

// TestHostCacheLimitEvictionOrder: SetCacheLimit evicts earliest-expiring
// entries first — both when the limit is imposed over a full cache and when
// later grants overflow it.
func TestHostCacheLimitEvictionOrder(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "mid", 2*time.Minute)
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "soonest", 1*time.Minute)
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "latest", 3*time.Minute)

	// Imposing the limit trims to the two entries expiring last.
	h.SetCacheLimit(2)
	if n := len(h.CacheSnapshot()); n != 2 {
		t.Fatalf("cache holds %d entries after SetCacheLimit(2), want 2", n)
	}
	if g := h.CacheGranters("a", "soonest", wire.RightUse); g != 0 {
		t.Fatal("earliest-expiring entry survived the limit")
	}
	for _, keep := range []wire.UserID{"mid", "latest"} {
		if g := h.CacheGranters("a", keep, wire.RightUse); g != 1 {
			t.Fatalf("entry %s evicted out of order (granters=%d)", keep, g)
		}
	}

	// A new grant expiring last pushes out the now-earliest entry ("mid").
	grantIntoCache(t, env, h, []wire.NodeID{"m0"}, "newest", 10*time.Minute)
	if n := len(h.CacheSnapshot()); n != 2 {
		t.Fatalf("cache grew past its limit: %d", n)
	}
	if g := h.CacheGranters("a", "mid", wire.RightUse); g != 0 {
		t.Fatal("overflow evicted the wrong entry (mid survived)")
	}
	for _, keep := range []wire.UserID{"latest", "newest"} {
		if g := h.CacheGranters("a", keep, wire.RightUse); g != 1 {
			t.Fatalf("entry %s missing after overflow eviction", keep)
		}
	}
}

// TestHostCacheGrantersConcurrentChecks hammers a warm cache from many
// goroutines — checks, granter counts, purges, re-grants — while nothing
// expires.
// Every decision must be an allowed cache hit and every granter count must
// see the full quorum; run under -race (scripts/ci.sh) this also proves the
// host's locking. The paper's host serves concurrent application requests
// off this cache (§3.2), so the counters must be stable under contention.
func TestHostCacheGrantersConcurrentChecks(t *testing.T) {
	lenv := newLockedEnv()
	h := NewHost("h0", lenv, nil, nil)
	managers := []wire.NodeID{"m0", "m1"}
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: managers,
		Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	const users = 4
	for i := 0; i < users; i++ {
		grantIntoCache(t, lenv.e, h, managers, wire.UserID(fmt.Sprintf("u%d", i)), 10*time.Minute)
	}

	const workers = 8
	const rounds = 100
	errs := make(chan string, workers*rounds)
	var wg sync.WaitGroup
	// Meanwhile every entry keeps being re-granted with a later limit, as
	// refresh-ahead does: a new limit starts a new vouching set, and grant
	// installs the whole quorum in one Put, so a reader that now shares no
	// lock with the writer but the cache's own never sees a partial set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		limit := lenv.Now().Add(10 * time.Minute)
		for i := 0; i < rounds; i++ {
			limit = limit.Add(time.Second)
			for u := 0; u < users; u++ {
				h.cache.Put("a", wire.UserID(fmt.Sprintf("u%d", u)), wire.RightUse, limit, managers...)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		worker := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				user := wire.UserID(fmt.Sprintf("u%d", (worker+i)%users))
				switch i % 3 {
				case 0:
					h.Check("a", user, wire.RightUse, func(d Decision) {
						if !d.Allowed || !d.CacheHit {
							errs <- fmt.Sprintf("check %s: %+v", user, d)
						}
					})
				case 1:
					if g := h.CacheGranters("a", user, wire.RightUse); g != 2 {
						errs <- fmt.Sprintf("granters(%s) = %d, want 2", user, g)
					}
				default:
					if n := h.PurgeExpired(); n != 0 {
						errs <- fmt.Sprintf("purged %d fresh entries", n)
					}
					if n := len(h.CacheSnapshot()); n != users {
						errs <- fmt.Sprintf("cache len %d, want %d", n, users)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
