package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRealNow(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Errorf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(3 * time.Second)
	if got, want := v.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
	v.Advance(-time.Hour) // negative ignored
	if got, want := v.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Errorf("after negative Advance, Now() = %v, want %v", got, want)
	}
	v.Advance(0)
	if got, want := v.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Errorf("after zero Advance, Now() = %v, want %v", got, want)
	}
}

func TestVirtualSetMonotonic(t *testing.T) {
	v := NewVirtual()
	target := Epoch.Add(time.Minute)
	v.Set(target)
	if !v.Now().Equal(target) {
		t.Errorf("Now() = %v, want %v", v.Now(), target)
	}
	v.Set(Epoch) // backwards jump ignored
	if !v.Now().Equal(target) {
		t.Errorf("Set went backwards: Now() = %v, want %v", v.Now(), target)
	}
}

func TestVirtualMonotoneQuick(t *testing.T) {
	f := func(steps []int16) bool {
		v := NewVirtual()
		prev := v.Now()
		for _, s := range steps {
			v.Advance(time.Duration(s) * time.Millisecond)
			now := v.Now()
			if now.Before(prev) {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDriftingSlowClock(t *testing.T) {
	base := NewVirtual()
	d := NewDrifting(base, 0.5) // runs at half speed
	base.Advance(10 * time.Second)
	elapsed := d.Now().Sub(Epoch)
	if elapsed != 5*time.Second {
		t.Errorf("drifted elapsed = %v, want 5s", elapsed)
	}
	if d.rate != 0.5 {
		t.Errorf("rate = %v, want 0.5", d.rate)
	}
}

func TestDriftingFastClock(t *testing.T) {
	base := NewVirtual()
	d := NewDrifting(base, 2.0)
	base.Advance(10 * time.Second)
	if elapsed := d.Now().Sub(Epoch); elapsed != 20*time.Second {
		t.Errorf("drifted elapsed = %v, want 20s", elapsed)
	}
}

func TestDriftingUnitRateMatchesBase(t *testing.T) {
	base := NewVirtual()
	d := NewDrifting(base, 1.0)
	base.Advance(7 * time.Hour)
	if !d.Now().Equal(base.Now()) {
		t.Errorf("unit-rate drift diverged: %v vs %v", d.Now(), base.Now())
	}
}

func TestExpirationPeriod(t *testing.T) {
	cases := []struct {
		te   time.Duration
		b    float64
		want time.Duration
	}{
		{10 * time.Minute, 1.0, 10 * time.Minute},
		{10 * time.Minute, 0.5, 5 * time.Minute},
		{10 * time.Minute, 0.9, 9 * time.Minute},
		{10 * time.Minute, 0, 10 * time.Minute},   // invalid b: fall back to Te
		{10 * time.Minute, 1.5, 10 * time.Minute}, // invalid b: fall back to Te
		{10 * time.Minute, -1, 10 * time.Minute},
	}
	for _, c := range cases {
		if got := ExpirationPeriod(c.te, c.b); got != c.want {
			t.Errorf("ExpirationPeriod(%v, %v) = %v, want %v", c.te, c.b, got, c.want)
		}
	}
}

// TestExpirationGuarantee checks the paper's §3.2 clock-drift argument
// end to end: a host whose clock runs at the slowest legal rate (measuring
// b local units per real unit) and expires entries after te = Te*b local
// units holds a right for at most Te real units.
func TestExpirationGuarantee(t *testing.T) {
	const b = 0.8
	te := 10 * time.Minute
	localPeriod := ExpirationPeriod(te, b)

	base := NewVirtual()         // real time
	host := NewDrifting(base, b) // slowest legal local clock
	grantLocal := host.Now()     // host caches a grant now
	deadline := grantLocal.Add(localPeriod)

	// Advance real time to exactly Te: the local clock must have reached
	// (or passed) the expiration deadline.
	base.Advance(te)
	if host.Now().Before(deadline) {
		t.Errorf("after Te real time, local clock %v still before deadline %v: entry would outlive Te",
			host.Now(), deadline)
	}
}

func TestExpirationGuaranteeQuick(t *testing.T) {
	f := func(rateMilli uint16, teSec uint32) bool {
		// rate in (b, 1]: any legal clock at least as fast as the bound.
		b := 0.5
		rate := b + float64(rateMilli%500)/1000.0 // [0.5, 1.0)
		te := time.Duration(teSec%86400+1) * time.Second
		localPeriod := ExpirationPeriod(te, b)

		base := NewVirtual()
		host := NewDrifting(base, rate)
		deadline := host.Now().Add(localPeriod)
		base.Advance(te)
		// Faster clocks expire earlier; the guarantee is one-sided.
		return !host.Now().Before(deadline) || rate < b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVirtualConcurrentAccess(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			v.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = v.Now()
	}
	<-done
	if got, want := v.Now(), Epoch.Add(time.Second); !got.Equal(want) {
		t.Errorf("Now() = %v, want %v", got, want)
	}
}

// TestVirtualConcurrentMonotone hammers one clock with Set and Advance from
// several goroutines while readers watch it: every reader must see a
// non-decreasing sequence, and no Advance may be lost. Run under -race.
func TestVirtualConcurrentMonotone(t *testing.T) {
	const writers, readers, steps = 4, 4, 2000
	v := NewVirtual()
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			prev := v.Now()
			for {
				now := v.Now()
				if now.Before(prev) {
					t.Errorf("clock went backwards: %v after %v", now, prev)
					return
				}
				prev = now
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < steps; i++ {
				if (i+w)%2 == 0 {
					v.Advance(time.Microsecond)
				} else {
					// Often behind the clock by now: must be ignored, never
					// pull it back.
					v.Set(Epoch.Add(time.Duration(i) * time.Microsecond))
				}
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	// Each writer advanced steps/2 times, and a Set only ever adds.
	if min := Epoch.Add(writers * steps / 2 * time.Microsecond); v.Now().Before(min) {
		t.Errorf("Now() = %v, want at least %v: an Advance was lost", v.Now(), min)
	}
}
