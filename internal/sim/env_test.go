package sim

import (
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/trace"
	"wanac/internal/vclock"
	"wanac/internal/wire"
)

func TestEnvBasics(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	e := NewEnv("n1", net)
	if e.id != "n1" {
		t.Errorf("id = %q", e.id)
	}
	if !e.Now().Equal(vclock.Epoch) {
		t.Errorf("Now = %v", e.Now())
	}
	fired := false
	e.SetTimer(time.Second, func() { fired = true })
	sched.RunFor(2 * time.Second)
	if !fired {
		t.Error("timer did not fire")
	}
}

func TestDriftingEnvTimerScaling(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	// A clock at half speed measures 10s of local time over 20s of real
	// (simulated) time, so a 10s local timer fires at real t=20s.
	e := NewDriftingEnv("slow", net, 0.5)
	fired := false
	e.SetTimer(10*time.Second, func() { fired = true })
	sched.RunFor(19 * time.Second)
	if fired {
		t.Fatal("slow clock's timer fired too early")
	}
	sched.RunFor(2 * time.Second)
	if !fired {
		t.Fatal("slow clock's timer never fired")
	}
	// Local elapsed time is about half of real elapsed.
	local := e.Now().Sub(vclock.Epoch)
	if local < 10*time.Second || local > 11*time.Second {
		t.Errorf("local elapsed = %v, want ~10.5s", local)
	}
}

// TestDriftingEnvTimerReset: a host re-arms its round timer with Reset, which
// must measure the timeout on the host's clock as SetTimer does. At clock
// rate 0.5, with managers that never answer, each 1 s round times out after
// 2 s of simulated real time, so the third round's timeout denies at 6 s. A
// Reset that skipped the rate would deny at 4 s.
func TestDriftingEnvTimerReset(t *testing.T) {
	w, err := Build(Config{
		Managers: 3, Hosts: 1,
		Policy:         core.Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 3},
		HostClockRates: []float64{0.5},
		Tracer:         trace.Nop{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Managers {
		w.Net.Crash(ManagerID(i))
	}
	start := w.Sched.Now()
	var (
		d       core.Decision
		decided time.Duration
	)
	w.Hosts[0].Check(w.Cfg.App, "u", wire.RightUse, func(got core.Decision) {
		d, decided = got, w.Sched.Now().Sub(start)
	})
	w.RunFor(time.Minute)
	if decided != 6*time.Second || d.Allowed || d.Attempts != 3 {
		t.Errorf("decided %+v at %v, want a denial after 3 rounds at 6s", d, decided)
	}
}

func TestDriftingEnvInvalidRate(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	e := NewDriftingEnv("x", net, 0) // coerced to rate 1
	fired := false
	e.SetTimer(time.Second, func() { fired = true })
	sched.RunFor(time.Second)
	if !fired {
		t.Error("rate-0 env timer did not fire at rate 1")
	}
}
