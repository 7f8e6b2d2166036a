// Package ratelimit provides the token buckets behind manager admission
// control. A bucket holds up to Burst tokens and refills at Rate tokens per
// second; each admitted request spends one token. The package is built for
// the simulator's virtual clock: every method takes the current time
// explicitly instead of reading the wall clock, so the same code runs under
// simnet's deterministic scheduler and in live deployments (callers pass
// time.Now()).
//
// Keyed wraps a bucket per key (per source host, per application) with
// idle-entry eviction, which is what the manager actually mounts: one global
// per-app bucket bounding aggregate load, and per-host buckets preventing a
// single aggressive host from consuming the whole app budget.
package ratelimit

import (
	"sync"
	"time"
)

// Bucket is a token bucket. The zero value is unusable; construct with
// NewBucket. Methods are not safe for concurrent use — Keyed adds the lock,
// and single-bucket users hold their own (the manager's buckets are only
// touched under the node lock).
type Bucket struct {
	rate  float64 // tokens per second
	burst float64 // capacity
	// tokens is the balance as of last. Refill is computed lazily on each
	// call from the elapsed time, so an idle bucket costs nothing.
	tokens float64
	last   time.Time
}

// NewBucket returns a bucket refilling at rate tokens/second with capacity
// burst, starting full. A non-positive rate never refills (the initial burst
// is all there is); a non-positive burst admits nothing, ever — useful as an
// explicit "shed everything" configuration.
func NewBucket(rate, burst float64) *Bucket {
	if burst < 0 {
		burst = 0
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// refill advances the balance to now. Time moving backwards (clock skew in
// live deployments) is treated as no elapsed time rather than a debit.
func (b *Bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	if elapsed := now.Sub(b.last); elapsed > 0 && b.rate > 0 {
		b.tokens += elapsed.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	if now.After(b.last) {
		b.last = now
	}
}

// Allow reports whether one request may proceed at time now, spending a
// token if so.
func (b *Bucket) Allow(now time.Time) bool {
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryAfter returns how long after now the bucket will next hold a full
// token — the value a manager puts in a Busy reply so hosts back off for a
// useful amount of time instead of guessing. Zero means a token is available
// now; a bucket that can never refill to one token reports a sentinel of one
// hour rather than infinity.
func (b *Bucket) RetryAfter(now time.Time) time.Duration {
	b.refill(now)
	if b.tokens >= 1 {
		return 0
	}
	const never = time.Hour
	if b.rate <= 0 || b.burst < 1 {
		return never
	}
	need := 1 - b.tokens
	d := time.Duration(need / b.rate * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond // a token is strictly in the future
	}
	if d > never {
		d = never
	}
	return d
}

// Keyed maintains one bucket per key, creating buckets on first use and
// evicting entries idle longer than the configured window so a long-running
// manager's memory stays proportional to its active host set, not its
// lifetime one. Keyed is safe for concurrent use.
type Keyed struct {
	rate, burst float64
	idle        time.Duration

	mu      sync.Mutex
	buckets map[string]*keyedEntry
	sweepAt time.Time
}

type keyedEntry struct {
	b    *Bucket
	used time.Time
}

// DefaultIdleEviction is how long a key's bucket survives without traffic
// before it is swept. An evicted key starts over with a full burst, which is
// exactly what a freshly booted host would get anyway.
const DefaultIdleEviction = 5 * time.Minute

// NewKeyed returns a keyed limiter; every key gets its own bucket with the
// given rate and burst. idle <= 0 uses DefaultIdleEviction.
func NewKeyed(rate, burst float64, idle time.Duration) *Keyed {
	if idle <= 0 {
		idle = DefaultIdleEviction
	}
	return &Keyed{rate: rate, burst: burst, idle: idle,
		buckets: make(map[string]*keyedEntry)}
}

// Allow reports whether one request for key may proceed at now.
func (k *Keyed) Allow(key string, now time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.entry(key, now).b.Allow(now)
}

// RetryAfter returns key's bucket refill wait (see Bucket.RetryAfter).
func (k *Keyed) RetryAfter(key string, now time.Time) time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.entry(key, now).b.RetryAfter(now)
}

func (k *Keyed) entry(key string, now time.Time) *keyedEntry {
	if now.Sub(k.sweepAt) >= k.idle {
		for key, e := range k.buckets {
			if now.Sub(e.used) >= k.idle {
				delete(k.buckets, key)
			}
		}
		k.sweepAt = now
	}
	e, ok := k.buckets[key]
	if !ok {
		e = &keyedEntry{b: NewBucket(k.rate, k.burst)}
		k.buckets[key] = e
	}
	e.used = now
	return e
}
