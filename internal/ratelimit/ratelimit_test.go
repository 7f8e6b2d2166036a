package ratelimit

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// t0 is an arbitrary virtual-clock epoch; every test advances from it
// explicitly, the way the simulator's scheduler does.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestBurstThenRefill(t *testing.T) {
	b := NewBucket(10, 3) // 10 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if !b.Allow(t0) {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	if b.Allow(t0) {
		t.Fatal("request beyond burst admitted with no time elapsed")
	}
	// 100ms refills exactly one token at 10/s.
	if !b.Allow(t0.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if b.Allow(t0.Add(100 * time.Millisecond)) {
		t.Fatal("second request admitted after a one-token refill")
	}
}

// TestZeroCapacity: burst 0 admits nothing, ever, and RetryAfter reports the
// bounded "never" sentinel instead of an overflow or a zero.
func TestZeroCapacity(t *testing.T) {
	b := NewBucket(100, 0)
	for _, at := range []time.Time{t0, t0.Add(time.Second), t0.Add(time.Hour)} {
		if b.Allow(at) {
			t.Fatalf("zero-capacity bucket admitted a request at %v", at)
		}
	}
	if got := b.RetryAfter(t0.Add(2 * time.Hour)); got != time.Hour {
		t.Errorf("RetryAfter = %v, want the 1h never-sentinel", got)
	}
	// Negative burst is clamped to zero, not a panic or a weird balance.
	if NewBucket(1, -5).Allow(t0) {
		t.Error("negative-capacity bucket admitted a request")
	}
}

// TestRefillRounding: sub-token refill intervals accumulate without loss
// under virtual time. 1000 steps of 1ms at 1 token/s must admit exactly one
// request at the end — neither zero (truncation per step) nor early.
func TestRefillRounding(t *testing.T) {
	b := NewBucket(1, 1)
	if !b.Allow(t0) {
		t.Fatal("initial token denied")
	}
	now := t0
	admitted := 0
	for i := 0; i < 1000; i++ {
		now = now.Add(time.Millisecond)
		if b.Allow(now) {
			admitted++
			if i < 998 { // float slack only at the very boundary
				t.Fatalf("admitted after only %dms at 1 token/s", i+1)
			}
		}
	}
	if admitted != 1 {
		t.Fatalf("admitted %d over 1s at 1 token/s, want exactly 1", admitted)
	}
}

// TestBurstThenIdle: an idle bucket refills to capacity and no further — a
// long quiet period does not bank an unbounded burst.
func TestBurstThenIdle(t *testing.T) {
	b := NewBucket(10, 5)
	for i := 0; i < 5; i++ {
		b.Allow(t0)
	}
	// An hour idle at 10/s would naively bank 36000 tokens; capacity caps
	// it at 5.
	later := t0.Add(time.Hour)
	admitted := 0
	for i := 0; i < 100; i++ {
		if b.Allow(later) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("admitted %d after long idle, want burst cap 5", admitted)
	}
}

// TestClockBackwards: time moving backwards neither refills nor debits.
func TestClockBackwards(t *testing.T) {
	b := NewBucket(10, 2)
	b.Allow(t0)
	if b.refill(t0.Add(-time.Minute)); b.tokens != 1 {
		t.Errorf("tokens after backwards step = %v, want 1", b.tokens)
	}
	if !b.Allow(t0.Add(100 * time.Millisecond)) {
		t.Error("forward progress after backwards step denied")
	}
}

func TestRetryAfter(t *testing.T) {
	b := NewBucket(10, 1)
	if got := b.RetryAfter(t0); got != 0 {
		t.Fatalf("RetryAfter with a full token = %v, want 0", got)
	}
	b.Allow(t0)
	got := b.RetryAfter(t0)
	if got <= 0 || got > 100*time.Millisecond {
		t.Fatalf("RetryAfter after spend = %v, want (0, 100ms]", got)
	}
	// Waiting the advertised time must actually yield a token.
	if !b.Allow(t0.Add(got)) {
		t.Error("request denied after waiting the advertised RetryAfter")
	}
	// A rate-0 bucket that spent its burst can never refill.
	b2 := NewBucket(0, 1)
	b2.Allow(t0)
	if got := b2.RetryAfter(t0.Add(time.Minute)); got != time.Hour {
		t.Errorf("rate-0 RetryAfter = %v, want the 1h never-sentinel", got)
	}
}

// TestKeyedIsolation: keys meter independently.
func TestKeyedIsolation(t *testing.T) {
	k := NewKeyed(1, 2, 0)
	k.Allow("h1", t0)
	k.Allow("h1", t0)
	if k.Allow("h1", t0) {
		t.Fatal("h1 admitted beyond its burst")
	}
	if !k.Allow("h2", t0) {
		t.Fatal("h2 denied by h1's exhaustion")
	}
	if k.RetryAfter("h1", t0) <= 0 {
		t.Error("exhausted h1 reports no wait")
	}
	if k.RetryAfter("h2", t0) != 0 {
		t.Error("fresh h2 reports a wait")
	}
}

// TestKeyedEviction: buckets idle past the window are swept; an evicted key
// starts over with a full burst.
func TestKeyedEviction(t *testing.T) {
	k := NewKeyed(0, 1, time.Minute) // rate 0: a key's burst never refills
	k.Allow("h1", t0)
	if k.Allow("h1", t0.Add(30*time.Second)) {
		t.Fatal("h1 admitted beyond its never-refilling burst")
	}
	k.Allow("h2", t0.Add(90*time.Second)) // traffic past the window triggers the sweep
	if len(k.buckets) != 1 {
		t.Fatalf("live buckets = %d, want 1 (h1 evicted)", len(k.buckets))
	}
	if !k.Allow("h1", t0.Add(91*time.Second)) {
		t.Fatal("re-created h1 denied its fresh burst")
	}
}

// TestConcurrentAllow: with 8 goroutines hammering one key at a fixed
// virtual instant, exactly burst requests are admitted — the lock makes
// spend-and-check atomic, so concurrency cannot mint tokens.
func TestConcurrentAllow(t *testing.T) {
	const burst, workers, perWorker = 50, 8, 100
	k := NewKeyed(0, burst, 0)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if k.Allow("shared", t0) {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != burst {
		t.Fatalf("admitted %d concurrently, want exactly %d", got, burst)
	}
}
