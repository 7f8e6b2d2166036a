package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"wanac/internal/core"
	"wanac/internal/harness"
	"wanac/internal/scenario"
	"wanac/internal/sim"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// simScenarios is the slice of the catalog sim-catalog runs: a clean run, a
// big skewed population with tight caches, a 100x flood against
// finite-capacity managers, and revocations racing a partition.
var simScenarios = []string{"steady-baseline", "zipf-flood", "overload-100x", "revoke-under-partition"}

// simPass is one run of every scenario at one seed.
type simPass struct {
	wall       [4]float64 // seconds per scenario
	simSeconds float64
	decisions  uint64
	sent       uint64
	dropped    uint64
	violations int
	why        string
}

func (p *simPass) wallTotal() float64 {
	var s float64
	for _, w := range p.wall {
		s += w
	}
	return s
}

func lookupScenarios() ([]*scenario.Scenario, error) {
	out := make([]*scenario.Scenario, len(simScenarios))
	for i, name := range simScenarios {
		sc, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// runPass runs the four scenarios at one seed with all five oracles
// attached (scenario.Run always attaches them).
func runPass(scs []*scenario.Scenario, seed int64) (simPass, error) {
	var p simPass
	for i, sc := range scs {
		t0 := time.Now()
		res, err := scenario.Run(sc, seed)
		if err != nil {
			return p, err
		}
		p.wall[i] = time.Since(t0).Seconds()
		p.simSeconds += (sc.Duration + harness.Settle).Seconds()
		p.decisions += uint64(res.Decisions)
		p.sent += res.Net.Sent
		p.dropped += res.Net.Dropped
		p.violations += len(res.Violations)
		if len(res.Violations) > 0 && p.why == "" {
			p.why = fmt.Sprintf("%s seed %d: %s", sc.Name, seed, res.Violations[0].String())
		}
	}
	return p, nil
}

// simPhase runs passes first..first+count-1 on runners goroutines (runner j
// takes every runners-th pass) and returns each runner's passes.
func simPhase(seed int64, first, count, runners int) ([][]simPass, error) {
	out := make([][]simPass, runners)
	errs := make([]error, runners)
	var wg sync.WaitGroup
	for j := 0; j < runners; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// Each runner needs its own scenario values: Run reads them only,
			// but a private copy keeps runners from sharing anything.
			own, err := lookupScenarios()
			if err != nil {
				errs[j] = err
				return
			}
			for i := first + j; i < first+count; i += runners {
				p, err := runPass(own, passSeed(seed, i))
				if err != nil {
					errs[j] = err
					return
				}
				out[j] = append(out[j], p)
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// passSeed derives the i-th pass's seed; never 0 (scenario.Run reads 0 as
// "use the scenario's default").
func passSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// phaseRate sums, over runners, the runner's rate of f over all its passes.
// A pass's cost depends on its seed (overload-100x sends 85 k to 170 k
// messages for the same 9.7 k decisions), so the median pass moves with the
// seeds drawn where the total over a runner's passes averages them.
func phaseRate(runners [][]simPass, f func(*simPass) float64) float64 {
	var total float64
	for _, passes := range runners {
		var work, wall float64
		for i := range passes {
			work += f(&passes[i])
			wall += passes[i].wallTotal()
		}
		total += ratio(work, wall)
	}
	return total
}

func allPasses(runners [][]simPass) []simPass {
	var out []simPass
	for _, passes := range runners {
		out = append(out, passes...)
	}
	return out
}

// simPassCounts turns the run length into fixed pass counts — passes on the
// single runner of the per-layer phase, rounds of one pass per runner end to
// end (a pass is about 0.65 s alone and 0.9 s beside another on the reference
// box, and a reading of the box's speed follows every round) — so what runs
// depends on the arguments and never on the clock: message and decision
// counts repeat exactly.
func simPassCounts(seconds float64) (single, rounds int) {
	single = int(math.Ceil(0.7 * seconds))
	rounds = int(math.Ceil(0.75 * seconds))
	return single, rounds
}

// simWorld is the small virtual-time deployment the revocation cycles run
// on: the live workloads' shape (3 managers, 2 hosts, C=2), instrumented the
// way scenario.Run instruments its worlds.
func simWorld() (*sim.World, error) {
	return sim.Build(sim.Config{
		App: benchApp, Managers: numManagers, Hosts: numHosts,
		Policy:     core.Policy{CheckQuorum: checkC, Te: time.Hour, QueryTimeout: 2 * time.Second, MaxAttempts: 3},
		Te:         time.Hour,
		Admin:      benchAdmin,
		Users:      userIDs("a", adminUsers),
		Telemetry:  telemetry.NewRegistry(),
		FlightRing: ringSize,
		AuditRing:  2 * ringSize,
	})
}

// simRevocations times, on the wall clock, how long the simulator takes to
// carry one revocation from Submit to its update quorum and to both hosts
// having flushed: the live revocation cycle with simnet in place of sockets.
func simRevocations(w *sim.World, cycles int, res *adminResult) {
	users := w.Cfg.Users
	check := func(user wire.UserID, want bool, stage string) {
		for h := range w.Hosts {
			res.attempted++
			d, ok := w.CheckSync(h, user, wire.RightUse, time.Minute)
			if !ok || d.Allowed != want {
				res.fail("sim %s check of %s on h%d: decided=%v allowed=%v", stage, user, h, ok, d.Allowed)
			}
		}
	}
	for i := 0; i < cycles; i++ {
		user := users[i%len(users)]
		mgr := i % numManagers
		check(user, true, "pre-revoke")
		res.attempted++
		res.ops++
		var quorumAt, flushAt time.Time
		quorum := false
		t0 := time.Now()
		w.Managers[mgr].Submit(wire.AdminOp{
			Op: wire.OpRevoke, App: benchApp, User: user, Right: wire.RightUse, Issuer: benchAdmin,
		}, func(r wire.AdminReply) {
			quorumAt = time.Now()
			quorum = r.QuorumReached
		})
		for steps := 0; (quorumAt.IsZero() || flushAt.IsZero()) && steps < 10_000 && w.Sched.Pending() > 0; steps++ {
			w.Sched.Step()
			if flushAt.IsZero() && w.Hosts[0].CacheGranters(benchApp, user, wire.RightUse) == 0 &&
				w.Hosts[1].CacheGranters(benchApp, user, wire.RightUse) == 0 {
				flushAt = time.Now()
			}
		}
		if !quorum || flushAt.IsZero() {
			res.fail("sim revocation of %s via m%d: quorum=%v flushed=%v", user, mgr, quorum, !flushAt.IsZero())
		} else {
			res.quorumNS = append(res.quorumNS, int64(quorumAt.Sub(t0)))
			res.flushNS = append(res.flushNS, int64(flushAt.Sub(t0)))
		}
		check(user, false, "post-flush")
		res.attempted++
		res.ops++
		if r, ok := w.Grant(mgr, user, time.Minute); !ok || !r.QuorumReached {
			res.fail("sim re-grant of %s via m%d failed", user, mgr)
		}
	}
	// The world's collector keeps every event; nothing reads them here.
	w.Tracer.Reset()
}

// openFDs counts this process's open descriptors; -1 when it cannot tell.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// setupSim is the simulator's set-up: resolve the catalog entries, build the
// revocation world, and run the two small scenarios once so the pools and
// the heap have their working shape before anything is timed.
func setupSim(seed int64) (*sim.World, error) {
	scs, err := lookupScenarios()
	if err != nil {
		return nil, err
	}
	w, err := simWorld()
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		if sc.Name == "steady-baseline" || sc.Name == "revoke-under-partition" {
			if _, err := scenario.Run(sc, passSeed(seed, 998)); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}
