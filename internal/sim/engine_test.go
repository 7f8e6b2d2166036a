package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"wanac/internal/wire"
)

// TestEstimatesWorkerCountInvariant is the determinism contract of the
// parallel engine: the estimates (point value AND interval, compared as
// whole structs) must be bit-identical whether trials run serially, on 4
// workers, or on GOMAXPROCS workers. Worker counts above 1 also exercise
// world reuse differently (each worker's first trial runs on a fresh
// world), so equality here doubles as a reuse-cleanliness check.
func TestEstimatesWorkerCountInvariant(t *testing.T) {
	cells := []TrialParams{
		{M: 5, C: 3, Pi: 0.2, Trials: 150, Seed: 11},
		{M: 4, C: 2, Pi: 0.4, Trials: 150, Seed: 12},
		{M: 3, C: 1, Pi: 0.05, Trials: 150, Seed: 13},
		{M: 1, C: 1, Pi: 0.5, Trials: 150, Seed: 14},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, cell := range cells {
		var wantPA, wantPS Proportion
		for i, wk := range workerCounts {
			p := cell
			p.Workers = wk
			pa, err := EstimatePA(p)
			if err != nil {
				t.Fatalf("M=%d C=%d workers=%d: EstimatePA: %v", p.M, p.C, wk, err)
			}
			ps, err := EstimatePS(p)
			if err != nil {
				t.Fatalf("M=%d C=%d workers=%d: EstimatePS: %v", p.M, p.C, wk, err)
			}
			if i == 0 {
				wantPA, wantPS = pa, ps
				continue
			}
			if pa != wantPA {
				t.Errorf("M=%d C=%d Pi=%v: PA with %d workers = %+v, serial = %+v",
					p.M, p.C, p.Pi, wk, pa, wantPA)
			}
			if ps != wantPS {
				t.Errorf("M=%d C=%d Pi=%v: PS with %d workers = %+v, serial = %+v",
					p.M, p.C, p.Pi, wk, ps, wantPS)
			}
		}
	}
}

// TestResetTrialMatchesFreshBuild pins the world-reuse optimization to the
// semantics it replaced: running every trial on one reused world (serial
// engine) must produce exactly the outcome sequence of building a fresh
// world per trial with the same per-trial seeds.
func TestResetTrialMatchesFreshBuild(t *testing.T) {
	p := TrialParams{M: 4, C: 2, Pi: 0.3, Trials: 80, Seed: 9, Workers: 1}
	got, err := EstimatePA(p)
	if err != nil {
		t.Fatal(err)
	}
	successes := 0
	for trial := 0; trial < p.Trials; trial++ {
		w, err := Build(trialConfig(p, 1))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(trialSeed(p.Seed, trial)))
		for m := 0; m < p.M; m++ {
			if rng.Float64() < p.Pi {
				w.Net.SetLink(HostID(0), ManagerID(m), false)
			}
		}
		d, done := w.CheckSync(0, "u", wire.RightUse, trialDeadline)
		if done && d.Allowed && !d.DefaultAllowed {
			successes++
		}
	}
	if want := NewProportion(successes, p.Trials); got != want {
		t.Errorf("reused-world estimate %+v, fresh-build reference %+v", got, want)
	}
}

// TestRunTrialsRespectsWorkersField: an explicit Workers value must not be
// overridden, and more workers than trials must clamp rather than spawn
// idle worlds.
func TestRunTrialsRespectsWorkersField(t *testing.T) {
	p := TrialParams{M: 2, C: 1, Pi: 0.5, Trials: 3, Seed: 1, Workers: 64}
	est, err := RunTrials(p, 0, func(w *World, rng *rand.Rand) (bool, error) {
		return rng.Float64() < 0.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials != p.Trials {
		t.Errorf("merged Trials = %d, want %d", est.Trials, p.Trials)
	}
}

func TestTrialSeedScatters(t *testing.T) {
	seen := make(map[int64]bool)
	for _, seed := range []int64{0, 1, 7} {
		for trial := 0; trial < 100; trial++ {
			s := trialSeed(seed, trial)
			if seen[s] {
				t.Fatalf("trialSeed(%d, %d) = %d collides", seed, trial, s)
			}
			seen[s] = true
		}
	}
}
