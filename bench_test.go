package wanac

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) and measures the
// performance claims of §4.1. Each benchmark prints its reproduced rows
// once (to stdout, so `go test -bench=.` output doubles as the artifact)
// and reports headline numbers as benchmark metrics.
//
//	go test -bench=. -benchmem
//
// E1  BenchmarkTable1*           Table 1
// E2  BenchmarkTable2*           Table 2
// E3  BenchmarkFigure5Curve      Figure 5
// E4  BenchmarkFigure2Basic*     basic protocol behaviour (Figure 2)
// E5  BenchmarkFigure3Revocation extended protocol bound (Figure 3)
// E6  BenchmarkFigure4HighAvail  high-availability rule (Figure 4)
// E8  BenchmarkOverhead*         §4.1 overhead O(C/Te), delay O(C)/O(R)
// E9  BenchmarkHeterogeneous     §4.1 heterogeneous model
// E10 BenchmarkFreezeVsQuorum    §3.3 freeze vs quorum ablation
// E11 BenchmarkBaselines         §4.2 eventual consistency & §3 options
//
// BenchmarkHarnessSeeds and BenchmarkCatalogPass price a judged world: their
// B/op is the home of EXPERIMENTS.md's "What a world costs".

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wanac/internal/baseline"
	"wanac/internal/core"
	"wanac/internal/harness"
	"wanac/internal/quorum"
	"wanac/internal/scenario"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

var (
	printMu     sync.Mutex
	printedKeys = map[string]bool{}
)

// printOnce emits an artifact block exactly once per `go test` process, so
// repeated benchmark iterations do not spam the output.
func printOnce(key string, fn func()) {
	printMu.Lock()
	defer printMu.Unlock()
	if printedKeys[key] {
		return
	}
	printedKeys[key] = true
	fn()
}

// --- E1 / E2: Tables 1 and 2 ------------------------------------------

func table1Rows() [][4]float64 {
	rows := make([][4]float64, 0, 10)
	for c := 1; c <= 10; c++ {
		pa1, _ := quorum.PA(10, c, 0.1)
		ps1, _ := quorum.PS(10, c, 0.1)
		pa2, _ := quorum.PA(10, c, 0.2)
		ps2, _ := quorum.PS(10, c, 0.2)
		rows = append(rows, [4]float64{pa1, ps1, pa2, ps2})
	}
	return rows
}

func BenchmarkTable1Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := table1Rows()
		if len(rows) != 10 {
			b.Fatal("bad table")
		}
	}
	printOnce("table1", func() {
		fmt.Println("\n[Table 1] M=10        Pi=0.1              Pi=0.2")
		fmt.Println("  C    PA(C)    PS(C)    PA(C)    PS(C)")
		for c, r := range table1Rows() {
			fmt.Printf("  %-3d  %.5f  %.5f  %.5f  %.5f\n", c+1, r[0], r[1], r[2], r[3])
		}
	})
}

func BenchmarkTable1MonteCarlo(b *testing.B) {
	// One iteration = one (C, Pi) cell at modest trial count driving the
	// real protocol; rotate through the table's cells. The serial/parallel
	// variants run the same trials through the experiment engine with one
	// worker vs GOMAXPROCS workers — estimates are bit-identical (the
	// engine's determinism contract), so the ratio is pure speedup.
	cells := []struct {
		c  int
		pi float64
	}{{1, 0.1}, {5, 0.1}, {10, 0.1}, {1, 0.2}, {5, 0.2}, {10, 0.2}}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cell := cells[i%len(cells)]
				p := sim.TrialParams{M: 10, C: cell.c, Pi: cell.pi, Trials: 50,
					Seed: int64(i + 1), Workers: workers}
				if _, err := sim.EstimatePA(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
	printOnce("table1-mc", func() {
		fmt.Println("\n[Table 1, Monte Carlo over live protocol] M=10, 2000 trials/cell")
		fmt.Println("  C    Pi   analytic PA  simulated PA   analytic PS  simulated PS")
		for _, pi := range []float64{0.1, 0.2} {
			for _, c := range []int{1, 3, 5, 8, 10} {
				pa, _ := quorum.PA(10, c, pi)
				ps, _ := quorum.PS(10, c, pi)
				epa, err := sim.EstimatePA(sim.TrialParams{M: 10, C: c, Pi: pi, Trials: 2000, Seed: 42})
				if err != nil {
					fmt.Println("error:", err)
					return
				}
				eps, err := sim.EstimatePS(sim.TrialParams{M: 10, C: c, Pi: pi, Trials: 2000, Seed: 43})
				if err != nil {
					fmt.Println("error:", err)
					return
				}
				fmt.Printf("  %-3d  %.1f  %.5f      %s   %.5f      %s\n", c, pi, pa, epa, ps, eps)
			}
		}
	})
}

func BenchmarkTable2Analytic(b *testing.B) {
	rows := []struct{ m, c int }{
		{4, 2}, {6, 2}, {8, 2}, {10, 2}, {12, 2},
		{4, 2}, {6, 3}, {8, 4}, {10, 5}, {12, 6},
	}
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			if _, err := quorum.PA(r.m, r.c, 0.1); err != nil {
				b.Fatal(err)
			}
			if _, err := quorum.PS(r.m, r.c, 0.2); err != nil {
				b.Fatal(err)
			}
		}
	}
	printOnce("table2", func() {
		fmt.Println("\n[Table 2]            Pi=0.1              Pi=0.2")
		fmt.Println("  M    C    PA(C)    PS(C)    PA(C)    PS(C)")
		for i, r := range rows {
			if i == 5 {
				fmt.Println("  ---- C scaled with M ----")
			}
			pa1, _ := quorum.PA(r.m, r.c, 0.1)
			ps1, _ := quorum.PS(r.m, r.c, 0.1)
			pa2, _ := quorum.PA(r.m, r.c, 0.2)
			ps2, _ := quorum.PS(r.m, r.c, 0.2)
			fmt.Printf("  %-3d  %-3d  %.5f  %.5f  %.5f  %.5f\n", r.m, r.c, pa1, ps1, pa2, ps2)
		}
	})
}

func BenchmarkTable2MonteCarlo(b *testing.B) {
	rows := []struct{ m, c int }{{4, 2}, {8, 2}, {12, 2}, {8, 4}, {12, 6}}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rows[i%len(rows)]
				p := sim.TrialParams{M: r.m, C: r.c, Pi: 0.2, Trials: 50,
					Seed: int64(i + 1), Workers: workers}
				if _, err := sim.EstimatePS(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
	printOnce("table2-mc", func() {
		fmt.Println("\n[Table 2, Monte Carlo over live protocol] Pi=0.2, 2000 trials/cell")
		fmt.Println("  M    C    analytic PS  simulated PS")
		for _, r := range []struct{ m, c int }{{4, 2}, {6, 2}, {8, 2}, {10, 2}, {12, 2}, {6, 3}, {8, 4}, {10, 5}, {12, 6}} {
			ps, _ := quorum.PS(r.m, r.c, 0.2)
			eps, err := sim.EstimatePS(sim.TrialParams{M: r.m, C: r.c, Pi: 0.2, Trials: 2000, Seed: 77})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %-3d  %-3d  %.5f      %s\n", r.m, r.c, ps, eps)
		}
	})
}

// --- E3: Figure 5 -------------------------------------------------------

func BenchmarkFigure5Curve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := quorum.Curve(10, 0.1); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("figure5", func() {
		fmt.Println("\n[Figure 5] availability/security curves, M=10 Pi=0.1 (CSV)")
		fmt.Println("C,PA,PS")
		curve, _ := quorum.Curve(10, 0.1)
		for _, p := range curve {
			fmt.Printf("%d,%.5f,%.5f\n", p.C, p.PA, p.PS)
		}
		best, _ := quorum.BestC(10, 0.1)
		fmt.Printf("crossover near C=M/2: BestC=%d (PA=%.5f PS=%.5f)\n", best.C, best.PA, best.PS)
	})
}

// --- E4: Figure 2 basic protocol ----------------------------------------

func buildBenchWorld(b *testing.B, policy core.Policy, te time.Duration) *sim.World {
	b.Helper()
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy: policy, Te: te,
		Users: []wire.UserID{"u"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkFigure2BasicCacheHit(b *testing.B) {
	// Basic protocol: Te=0, entries never expire; after the first check all
	// decisions are local cache hits (the paper: "the delay ... is very
	// small if the valid access control entry is already in the cache").
	policy := core.Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 3}
	w := buildBenchWorld(b, policy, 0)
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		b.Fatal("warm-up failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute)
		if !ok || !d.CacheHit {
			b.Fatal("expected cache hit")
		}
	}
	printOnce("figure2", func() {
		fmt.Println("\n[Figure 2] basic protocol: cold check fills ACL_cache, revocation")
		fmt.Println("arrives only via forwarded notices (no expiration); see also")
		fmt.Println("BenchmarkFigure2BasicColdCheck for the uncached path.")
	})
}

func BenchmarkFigure2BasicColdCheck(b *testing.B) {
	policy := core.Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 3}
	w := buildBenchWorld(b, policy, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Hosts[0].Reset() // empty cache: full manager round trip
		d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute)
		if !ok || !d.Allowed || d.CacheHit {
			b.Fatal("expected cold quorum check")
		}
	}
}

// --- E5: Figure 3 extended protocol / revocation bound -------------------

func BenchmarkFigure3RevocationBound(b *testing.B) {
	rates := []float64{1.0, 0.9, 0.8}
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		res, err := sim.MeasureRevocationLatency(sim.RevocationLatencyParams{
			Managers: 3, C: 2, Te: time.Minute,
			ClockBound:    0.8,
			HostClockRate: rates[i%len(rates)],
			ProbePeriod:   500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Retained > res.Bound {
			b.Fatalf("bound violated: retained %v > Te %v", res.Retained, res.Bound)
		}
		if res.Retained > worst {
			worst = res.Retained
		}
	}
	b.ReportMetric(worst.Seconds(), "worst-retained-s")
	printOnce("figure3", func() {
		fmt.Println("\n[Figure 3] extended protocol: access retained after quorum")
		fmt.Println("revocation, host partitioned from all managers (Te=60s, b=0.8)")
		fmt.Println("  host clock rate   retained    bound")
		for _, r := range rates {
			res, err := sim.MeasureRevocationLatency(sim.RevocationLatencyParams{
				Managers: 3, C: 2, Te: time.Minute,
				ClockBound: 0.8, HostClockRate: r, ProbePeriod: 250 * time.Millisecond,
			})
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %.2f              %6.1fs     %4.0fs\n", r, res.Retained.Seconds(), res.Bound.Seconds())
		}
		fmt.Println("  (retained <= Te always; slower legal clocks approach the bound)")
	})
}

// --- E6: Figure 4 high-availability rule ---------------------------------

func BenchmarkFigure4HighAvail(b *testing.B) {
	policy := core.Policy{
		CheckQuorum: 1, Te: time.Minute,
		QueryTimeout: 200 * time.Millisecond, MaxAttempts: 2, DefaultAllow: true,
	}
	w := buildBenchWorld(b, policy, time.Minute)
	w.PartitionHostFromManagers(0, 0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Hosts[0].Reset()
		d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute)
		if !ok || !d.DefaultAllowed {
			b.Fatal("expected Figure 4 default allow")
		}
	}
	printOnce("figure4", func() {
		fmt.Println("\n[Figure 4] high-availability rule: with all managers unreachable")
		fmt.Println("the host allows after R=2 query timeouts (delay O(R), §4.1);")
		fmt.Println("security-first policies deny at the same point instead.")
	})
}

// --- E8: §4.1 performance claims ----------------------------------------

func BenchmarkOverheadSweepC(b *testing.B) {
	const m = 8
	for i := 0; i < b.N; i++ {
		c := []int{1, 4, 8}[i%3]
		if _, err := sim.MeasureOverhead(m, c, 30*time.Second, 5*time.Minute, time.Second); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("overhead-c", func() {
		fmt.Println("\n[§4.1 overhead] messages and delay vs C (M=8, Te=30s, continuous access)")
		fmt.Println("  C    msgs/s   cold-check latency")
		for c := 1; c <= 8; c++ {
			p, err := sim.MeasureOverhead(8, c, 30*time.Second, 10*time.Minute, time.Second)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %-3d  %6.3f   %v\n", c, p.MessagesPerSecond, p.CheckLatency)
		}
	})
}

func BenchmarkOverheadSweepTe(b *testing.B) {
	tes := []time.Duration{10 * time.Second, 40 * time.Second, 160 * time.Second}
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureOverhead(4, 2, tes[i%len(tes)], 5*time.Minute, time.Second); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("overhead-te", func() {
		fmt.Println("\n[§4.1 overhead] message rate vs Te (M=4, C=2): overhead is O(C/Te)")
		fmt.Println("  Te      msgs/s")
		for _, te := range []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second, 80 * time.Second, 160 * time.Second} {
			p, err := sim.MeasureOverhead(4, 2, te, 20*time.Minute, time.Second)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %-6v  %6.3f\n", te, p.MessagesPerSecond)
		}
	})
}

// --- E9: §4.1 heterogeneous model ----------------------------------------

func BenchmarkHeterogeneous(b *testing.B) {
	sys := quorum.Uniform(8, 6, 0.05)
	for bb := 1; bb < 6; bb++ {
		sys.ManagerAccess[0][bb] = 0.5
		sys.ManagerAccess[bb][0] = 0.5
	}
	sys.ManagerWeight = []float64{0.9, 0.02, 0.02, 0.02, 0.02, 0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Analyze(3); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("hetero", func() {
		fmt.Println("\n[§4.1 heterogeneous] flaky manager 0 issues 90% of updates (M=6)")
		fmt.Println("  C    avail     sec       sec(uniform load)")
		uniformLoad := sys
		uniformLoad.ManagerWeight = nil
		for c := 1; c <= 6; c++ {
			a, s, _ := sys.Analyze(c)
			_, su, _ := uniformLoad.Analyze(c)
			fmt.Printf("  %-3d  %.5f  %.5f   %.5f\n", c, a, s, su)
		}
		fmt.Println("  (the paper's warning: a frequently-issuing, poorly-connected")
		fmt.Println("   manager drags system security far below the homogeneous estimate)")
	})
}

// --- E10: §3.3 ablation — freeze vs quorum -------------------------------

// measureStrategyAvailability isolates one manager for `outage` and counts
// how many of the periodic legitimate checks succeed.
func measureStrategyAvailability(b *testing.B, freezeTi time.Duration) (ok, total int) {
	b.Helper()
	policy := core.Policy{CheckQuorum: 2, Te: 2 * time.Minute, QueryTimeout: time.Second, MaxAttempts: 2}
	w, err := sim.Build(sim.Config{
		Managers: 4, Hosts: 1,
		Policy: policy, Te: 2 * time.Minute,
		FreezeTi:       freezeTi,
		HeartbeatEvery: 2 * time.Second,
		Users:          []wire.UserID{"u"},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Isolate manager 3 from everyone for 10 minutes.
	for i := 0; i < 3; i++ {
		w.PartitionManagerPair(3, i)
	}
	w.Net.SetLink(sim.HostID(0), sim.ManagerID(3), false)

	for i := 0; i < 60; i++ {
		w.RunFor(10 * time.Second)
		d, done := w.CheckSync(0, "u", wire.RightUse, time.Minute)
		total++
		if done && d.Allowed {
			ok++
		}
	}
	return ok, total
}

func BenchmarkFreezeVsQuorum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ti := time.Duration(0)
		if i%2 == 1 {
			ti = 30 * time.Second
		}
		measureStrategyAvailability(b, ti)
	}
	printOnce("freeze-vs-quorum", func() {
		fmt.Println("\n[§3.3 ablation] one manager isolated for 10 minutes (M=4, C=2)")
		okQ, totQ := measureStrategyAvailability(b, 0)
		okF, totF := measureStrategyAvailability(b, 30*time.Second)
		fmt.Printf("  quorum strategy:  %d/%d legitimate checks allowed (%.0f%%)\n",
			okQ, totQ, 100*float64(okQ)/float64(totQ))
		fmt.Printf("  freeze strategy:  %d/%d legitimate checks allowed (%.0f%%)\n",
			okF, totF, 100*float64(okF)/float64(totF))
		fmt.Println("  (the paper's critique of freezing: a single silent manager can")
		fmt.Println("   make the application completely inaccessible; quorums keep it up)")
	})
}

// --- E11: §4.2 / §3 baseline comparison ----------------------------------

// baselineRevocation measures revocation propagation latency to a host that
// is partitioned for `outage`, for the wanac protocol vs the
// eventual-consistency baseline, plus the message cost of a full-replication
// update.
func baselineComparison(outage time.Duration) (wanacLatency, ecLatency time.Duration, err error) {
	const te = time.Minute

	// wanac: expiration bounds the latency at Te even while partitioned.
	res, err := sim.MeasureRevocationLatency(sim.RevocationLatencyParams{
		Managers: 3, C: 2, Te: te, ClockBound: 1, HostClockRate: 1,
		ProbePeriod: time.Second,
	})
	if err != nil {
		return 0, 0, err
	}
	wanacLatency = res.Retained

	// Eventual consistency: revocation waits for the partition to heal.
	sched := simnet.NewScheduler()
	net := simnet.New(sched, simnet.Config{})
	mgr := baseline.NewECManager("m0", sim.NewEnv("m0", net),
		baseline.ECConfig{Peers: []wire.NodeID{"h0"}, GossipEvery: time.Second})
	host := baseline.NewECHost("h0", sim.NewEnv("h0", net))
	net.Attach("m0", mgr)
	net.Attach("h0", host)
	mgr.Submit(wire.AdminOp{Op: wire.OpAdd, App: "a", User: "u", Right: wire.RightUse})
	sched.RunFor(2 * time.Second)
	net.SetLink("m0", "h0", false)
	revokedAt := sched.Now()
	mgr.Submit(wire.AdminOp{Op: wire.OpRevoke, App: "a", User: "u", Right: wire.RightUse})
	sched.RunFor(outage)
	net.Heal()
	for host.Check("a", "u", wire.RightUse) {
		sched.RunFor(time.Second)
		if sched.Now().Sub(revokedAt) > outage+time.Minute {
			break
		}
	}
	ecLatency = sched.Now().Sub(revokedAt)
	return wanacLatency, ecLatency, nil
}

func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := baselineComparison(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("baselines", func() {
		fmt.Println("\n[§4.2 comparison] revoked-user exposure while a host is")
		fmt.Println("partitioned (Te=60s for wanac; EC = Samarati-style gossip)")
		fmt.Println("  outage    wanac retains   EC retains")
		for _, outage := range []time.Duration{2 * time.Minute, 5 * time.Minute, 15 * time.Minute} {
			wl, el, err := baselineComparison(outage)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %-8v  %-14v  %v\n", outage, wl.Round(time.Second), el.Round(time.Second))
		}
		fmt.Println("  (wanac's exposure is capped at Te; eventual consistency tracks")
		fmt.Println("   the full outage duration — the paper's core differentiation)")
	})
}

// --- Extensions: refresh-ahead caching and deployment planning -----------

// measureHitRate runs one host under steady access for 10 simulated minutes
// with te=30s and reports the foreground cache-miss count.
func measureHitRate(b *testing.B, refreshAhead time.Duration) int {
	b.Helper()
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 1,
		Policy: core.Policy{
			CheckQuorum: 2, Te: 30 * time.Second, QueryTimeout: time.Second,
			MaxAttempts: 2, RefreshAhead: refreshAhead,
		},
		Te:    30 * time.Second,
		Users: []wire.UserID{"u"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute); !ok || !d.Allowed {
		b.Fatal("warm-up failed")
	}
	misses := 0
	for i := 0; i < 120; i++ { // one foreground access every 5s
		w.RunFor(5 * time.Second)
		d, ok := w.CheckSync(0, "u", wire.RightUse, time.Minute)
		if !ok || !d.Allowed {
			b.Fatal("check failed")
		}
		if !d.CacheHit {
			misses++
		}
	}
	return misses
}

func BenchmarkRefreshAhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		measureHitRate(b, 10*time.Second)
	}
	printOnce("refresh-ahead", func() {
		without := measureHitRate(b, 0)
		with := measureHitRate(b, 10*time.Second)
		fmt.Println("\n[extension] refresh-ahead caching (te=30s, access every 5s, 10 min)")
		fmt.Printf("  foreground misses without refresh-ahead: %d (one per expiry)\n", without)
		fmt.Printf("  foreground misses with    refresh-ahead: %d\n", with)
		fmt.Println("  (background refreshes pre-pay the manager round trip; the Te")
		fmt.Println("   bound is untouched — revoked rights simply fail to refresh)")
	})
}

func BenchmarkPlanner(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := quorum.PlanParams(quorum.Targets{
			Availability: 0.99, Security: 0.99, Pi: 0.2,
		}); err != nil {
			b.Fatal(err)
		}
	}
	printOnce("planner", func() {
		p, _ := quorum.PlanParams(quorum.Targets{Availability: 0.99, Security: 0.99, Pi: 0.2})
		fmt.Println("\n[extension] §4.1 deployment planner: PA,PS >= 0.99 at Pi=0.2")
		fmt.Printf("  minimal plan: M=%d, C=%d (PA=%.5f PS=%.5f)\n", p.M, p.C, p.PA, p.PS)
		fmt.Println("  (the paper's remedy — grow the manager set until the targets fit)")
	})
}

// --- What a world costs -------------------------------------------------

// BenchmarkHarnessSeeds is one sweep of fifty seeded scenarios with all five
// oracles: what `acsim check -seeds 50` runs, and two thirds of TestHarnessQuick.
func BenchmarkHarnessSeeds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := harness.RunSeeds(1, 50, harness.Options{}, 0, nil); !rep.Passed() {
			b.Fatalf("sweep failed: %d failures, errors %v", len(rep.Failures), rep.Errors)
		}
	}
}

// BenchmarkCatalogPass is one pass of the benchmark's sim-catalog workload:
// its four catalog scenarios, at one seed, under all five oracles.
func BenchmarkCatalogPass(b *testing.B) {
	var scs []*scenario.Scenario
	for _, name := range []string{"steady-baseline", "zipf-flood", "overload-100x", "revoke-under-partition"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		scs = append(scs, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			res, err := scenario.Run(sc, 1)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed() {
				b.Fatalf("%s: %v", sc.Name, res.Violations)
			}
		}
	}
}
