// Command bench is the wanac benchmark: four workloads, end-to-end metrics
// for checks, revocations and the simulator measured with tracing off, and a
// per-layer table from a traced run plus an isolated-call pass. README.md in
// this directory is the manual; BENCHMARK.json at the root of the repo is
// the contract the numbers are judged by.
//
//	bash bench/run.sh --workload cold-tcp --seed 1 --seconds 26 --trace 0
//	bash bench/run.sh -seed 1 -out snapshot.json      (all workloads, both passes)
//	bash bench/run.sh -history
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wanac/internal/sim"
)

// result is what one workload run produced.
type result struct {
	workload  string
	trace     int
	attempted uint64     // operations judged
	failed    uint64     // operations that failed
	notes     []string   // violated assertions and first failure reasons
	info      []string   // printed under the metrics; says nothing about correctness
	metrics   *metricSet // in catalogue order, every row present
}

func (r *result) correct() bool {
	return r.failed == 0 && len(r.notes) == 0 && len(r.metrics.bad) == 0
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb folds one window's verdicts into the result.
func (r *result) absorb(wr *windowResult) {
	r.attempted += wr.attempted
	r.failed += wr.failed
	if wr.failed > 0 && wr.why != "" {
		r.note("%s", wr.why)
	}
}

// options are the knobs of one workload run. isoScale and spanCap are fixed
// for the command; the self-check shrinks them.
type options struct {
	seed     int64
	seconds  float64
	trace    int
	isoScale float64 // scales every isolated-call loop count
	spanCap  int     // span buffer size; the traced window ends when it is full
	traceOut string  // directory for span JSONL; "" writes none
	iso      *isoCache
}

const spanBuffer = 1 << 18

// runWorkload runs one workload once, traced or not.
func runWorkload(name string, o options) (*result, error) {
	if name == "sim-catalog" {
		return runSimWorkload(o)
	}
	w, err := newLiveWorkload(name, o.seed)
	if err != nil {
		return nil, err
	}
	if o.trace == 0 {
		return liveEndToEnd(w, o)
	}
	return livePerLayer(w, o)
}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 31

// warmSeconds is how long a deployment carries its load before the first
// timed window opens; see warm.
const warmSeconds = 2.0

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// revokeCycles is how many revocation cycles one burst runs on a quiet
// deployment (the workloads without an admin loop of their own).
func revokeCycles(seconds float64) int { return int(100*seconds) + 5 }

// fullLoad is the workload's full-load window.
func fullLoad(w *liveWorkload, dur time.Duration) window {
	callers := 1
	if w.wideAll {
		callers = nproc()
	}
	return window{callers: callers, inflight: w.wide, dur: dur, admin: w.churn}
}

// liveEndToEnd is the untraced run: set up, warm at full load, then the run
// length at full load in slices with a reading of the box's speed between
// them (calib.go); then set up setupRounds-1 times more for setup_s. The
// other set-ups come last because a closed deployment is not always
// collected at once (heap profiles show nodes of earlier ones, rings and ACL
// stores and all, still live seconds later), and live_heap_mb is to read the
// deployment under load, not how many of its predecessors linger.
func liveEndToEnd(w *liveWorkload, o options) (*result, error) {
	res := &result{workload: w.name, metrics: newMetricSet()}
	clock := newRefClock(o.seconds)
	var setups []float64
	setup := func() (*liveRun, error) {
		t0 := time.Now()
		run, err := setupLive(w)
		setups = append(setups, time.Since(t0).Seconds())
		return run, err
	}
	run, err := setup()
	if err != nil {
		return nil, err
	}
	run.warm(res, o, fullLoad(w, 0))

	heap := sampleHeap(secs(o.seconds / slices / 10))
	load := fullLoad(w, secs(o.seconds/slices*(1-calibShare)))
	var rates []float64
	var checks uint64
	var spent cost
	clock.read()
	for i := 0; i < slices; i++ {
		wr := run.run(load)
		clock.read()
		res.absorb(&wr)
		assertBypass(res, w, &wr)
		rates = append(rates, wr.rate())
		checks += wr.checks
		spent.cpu += wr.cost.cpu
		spent.mallocs += wr.cost.mallocs
	}
	heapMB := heap.mean()
	run.d.close()

	for i := 1; i < setupRounds; i++ {
		run, err := setup()
		if err != nil {
			return nil, err
		}
		run.d.close()
	}
	clock.read()
	res.endToEnd(clock, median(setups), midmean(rates), iqrRatio(rates), spent, checks, heapMB)
	return res, nil
}

// endToEnd reports an untraced run on the reference clock: raw seconds x the
// box's speed during the run. Under the metrics it prints what the run read
// before that, and what the clock read.
func (r *result) endToEnd(c *refClock, setup, rate, spread float64, spent cost, ops uint64, heapMB float64) {
	speed := c.speed()
	cpuUS := ratio(float64(spent.cpu.Nanoseconds())/1e3, float64(ops))
	m := r.metrics
	m.add("setup_s", setup*speed)
	m.addSpread("checks_per_s", rate/speed, spread)
	m.add("allocs_per_op", ratio(float64(spent.mallocs), float64(ops)))
	m.add("cpu_us_per_op", cpuUS*speed)
	m.add("live_heap_mb", heapMB)
	r.metrics = m.fill(endToEnd)
	asc := sorted(c.speeds)
	r.info = append(r.info, fmt.Sprintf("as measured: setup_s %.4f, checks_per_s %.1f, cpu_us_per_op %.4f; box speed %.3f of reference (%d readings, %.3f to %.3f)",
		setup, rate, cpuUS, speed, len(asc), asc[0], asc[len(asc)-1]))
}

// warm carries the load that is about to be timed for warmSeconds (a quarter
// of the run at most), untimed, and lets the traffic drain: the processors
// are at speed, the heap has its working size, and where entries expire the
// caches hold what this load keeps in them.
func (r *liveRun) warm(res *result, o options, load window) {
	load.dur = secs(min(warmSeconds, o.seconds/4))
	wr := r.run(load)
	res.absorb(&wr)
	r.quiesce()
}

// assertBypass checks what a workload promises not to touch.
func assertBypass(res *result, w *liveWorkload, wr *windowResult) {
	switch w.wantHit {
	case 1:
		if wr.delta.net.Sends != 0 {
			res.note("%s: %d transport sends inside a cached window (want 0)", w.name, wr.delta.net.Sends)
		}
		if wr.delta.host.CacheHits != wr.delta.host.Checks {
			res.note("%s: %d of %d checks hit the cache (want all)", w.name, wr.delta.host.CacheHits, wr.delta.host.Checks)
		}
	case 0:
		if wr.delta.host.CacheHits != 0 {
			res.note("%s: %d cache hits (want 0)", w.name, wr.delta.host.CacheHits)
		}
	}
}

// livePerLayer is the per-layer run: an untraced single-caller reference
// window (a quarter of the run length) for the single-caller rate, the
// latency diagnostics and the tracing overhead; on cached-hot the full
// load's callers on one host (an eighth); the measured revocations; then the
// same single-caller load with the tracer on the seams (half the
// run length, or until the span buffer is full); then the isolated-call pass.
func livePerLayer(w *liveWorkload, o options) (*result, error) {
	res := &result{workload: w.name, trace: 1, metrics: newMetricSet()}
	clock := newRefClock(o.seconds)
	run, err := setupLive(w)
	if err != nil {
		return nil, err
	}
	defer run.d.close()
	run.warm(res, o, window{callers: 1, inflight: 1, admin: w.churn})

	ref := run.run(window{callers: 1, inflight: 1, dur: secs(o.seconds / 4), admin: w.churn, latencies: true})
	res.absorb(&ref)
	clock.read()
	// Where the full load gives every caller a host of its own, the same
	// callers on one host show what sharing Host.mu costs.
	var shared windowResult
	if w.split {
		shared = run.run(window{callers: nproc(), inflight: w.wide, dur: secs(o.seconds / 8), oneHost: true})
		res.absorb(&shared)
		assertBypass(res, w, &shared)
	}
	// The revocations that are measured run untraced: beside the full load
	// where the workload has an admin loop, else on the quiet deployment.
	var refRevokes windowResult
	if w.churn {
		refRevokes = run.run(fullLoad(w, secs(o.seconds/4)))
	} else {
		refRevokes = run.run(window{adminCycles: revokeCycles(o.seconds)})
	}
	res.absorb(&refRevokes)
	if len(refRevokes.adm.flushNS) == 0 {
		res.note("no revocation was measured")
	}

	t := newTracer(o.spanCap)
	run.trace(t)
	var legT windowResult
	if !w.churn {
		// Revocations first: cached checks alone would fill the buffer.
		legT = run.run(window{adminCycles: revokeCycles(o.seconds / 4)})
		res.absorb(&legT)
	}
	traced := run.run(window{callers: 1, inflight: 1, dur: secs(o.seconds / 2), admin: w.churn})
	res.absorb(&traced)
	run.trace(nil)
	clock.read()
	assertBypass(res, w, &ref)
	assertBypass(res, w, &traced)

	spans := t.recorded()
	st := analyse(spans)
	if st.escaped > 0 {
		res.note("%d of %d child spans are not inside their parent", st.escaped, st.nested)
	}
	if o.traceOut != "" {
		if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.traceOut, "spans-"+w.name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	}

	m := res.metrics
	for kind := spCheckCall; kind < spKinds; kind++ {
		if name := spanNames[kind] + "_us"; defOf[name].Name != "" {
			m.add(name, median(st.selfUS[kind]))
		}
	}
	d := traced.delta
	checks := float64(traced.checks)
	delivered := float64(d.net.LaneDelivered[0] + d.net.LaneDelivered[1])
	enqueued := float64(d.net.LaneEnqueued[0] + d.net.LaneEnqueued[1])
	m.add("netcore.msgs_per_flush", ratio(delivered, float64(d.net.BatchesOut)))
	m.add("netcore.flushes_per_check", ratio(float64(d.net.BatchesOut), checks))
	m.add("netcore.drops", float64(d.net.Drops))
	m.add("netcore.lane_drops_high", float64(d.net.LaneDrops[1]))
	m.add("netcore.lane_high_share", ratio(float64(d.net.LaneEnqueued[1]), enqueued))
	m.add("core.host.cache_hit_ratio", ratio(float64(d.host.CacheHits), float64(d.host.Checks)))
	m.add("core.host.rounds_per_check", ratio(float64(d.host.QueryRounds), float64(d.host.Checks)))
	m.add("core.host.query_timeouts", float64(d.host.QueryTimeouts))
	m.add("core.env.timers_per_check", ratio(float64(d.timers), float64(d.host.Checks)))
	m.add("core.manager.queries_served", float64(d.mgr.QueriesServed))
	m.add("core.manager.queries_shed", float64(d.mgr.QueriesShed))
	m.add("core.manager.updates_stale", float64(d.mgr.UpdatesStale))
	m.add("acl.cache.len", float64(d.host.CacheLen))
	// Message costs and latency diagnostics come from the untraced
	// reference windows.
	m.add("msgs_per_check", ratio(float64(ref.delta.net.LaneEnqueued[0]), float64(ref.delta.host.Checks)))
	m.add("msgs_per_revoke", ratio(float64(refRevokes.delta.net.LaneEnqueued[1]), float64(refRevokes.adm.ops)))
	m.add("wire_bytes_per_check", ratio(float64(ref.delta.net.BytesOut), float64(ref.delta.host.Checks)))

	m.addSpread("checks_per_s_1caller", midmean(ref.sliceRates), iqrRatio(ref.sliceRates))
	addRevokes(m, &refRevokes.adm)
	if w.split {
		m.addSpread("bench.checks_per_s_one_host", midmean(shared.sliceRates), iqrRatio(shared.sliceRates))
	}
	m.add("bench.check_p50_us", quantile(ref.latUS, 0.5))
	m.add("bench.check_p99_us", tail(ref.latUS))
	m.add("bench.revoke_unflushed", float64(refRevokes.adm.unflushed+traced.adm.unflushed+legT.adm.unflushed))
	m.add("bench.slice_iqr_ratio", iqrRatio(ref.sliceRates))
	m.add("bench.trace_overhead_ratio", ratio(traced.rate(), ref.rate()))
	m.add("bench.path_accounted_ratio", median(st.accRatio))
	m.add("bench.speed_index", clock.speed())

	isoSet, err := o.iso.get(o)
	if err != nil {
		res.note("%v", err)
	}
	m.merge(isoSet)
	res.metrics = m.fill(perLayer)
	return res, nil
}

// addRevokes reports the measured revocations: medians and tails.
func addRevokes(m *metricSet, adm *adminResult) {
	quorumUS, flushUS := usAscending(adm.quorumNS), usAscending(adm.flushNS)
	m.add("revoke_quorum_p50_us", quantile(quorumUS, 0.5))
	m.add("revoke_flush_p50_us", quantile(flushUS, 0.5))
	m.add("bench.revoke_quorum_p99_us", tail(quorumUS))
	m.add("bench.revoke_flush_p99_us", tail(flushUS))
}

// isoCache holds the isolated-call pass: it does not depend on the
// workload, so an invocation that runs several workloads measures it once.
type isoCache struct {
	set *metricSet
	err error
}

func (c *isoCache) get(o options) (*metricSet, error) {
	if c.set == nil {
		c.set, c.err = isolatedPass(o.seed, o.isoScale)
	}
	return c.set, c.err
}

// runSimWorkload is sim-catalog. End to end it is the nproc-runner phase;
// "traced" means the single-runner phase — per-scenario wall times, exact
// counts, and a burst of revocation cycles after every pass, so their median
// samples the whole phase — since the simulator has no seams to hang a
// tracer on.
func runSimWorkload(o options) (*result, error) {
	res := &result{workload: "sim-catalog", trace: o.trace, metrics: newMetricSet()}
	fds := openFDs()
	single, many := simPassCounts(o.seconds)
	m := res.metrics
	absorb := func(passes []simPass) (decisions, sent uint64) {
		for _, p := range passes {
			decisions += p.decisions
			sent += p.sent
			res.attempted += p.decisions
			res.failed += uint64(p.violations)
			if p.why != "" {
				res.note("%s", p.why)
			}
		}
		return decisions, sent
	}
	perDecision := func(p *simPass) float64 { return float64(p.decisions) }

	var setups []float64
	var world *sim.World
	var clock *refClock
	rounds := 1
	if o.trace == 0 {
		rounds = setupRounds
		clock = newRefClock(o.seconds)
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		w, err := setupSim(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		world = w
	}

	if o.trace == 0 {
		// One pass per runner at a time, a reading of the box's speed after
		// each such round.
		n := nproc()
		heap := sampleHeap(secs(o.seconds / slices / 10))
		runners := make([][]simPass, n)
		var spent cost
		clock.read()
		for r := 0; r < many; r++ {
			mark := markCost()
			round, err := simPhase(o.seed, r*n, n, n)
			if err != nil {
				heap.mean()
				return nil, err
			}
			c := mark.since()
			clock.read()
			spent.cpu += c.cpu
			spent.mallocs += c.mallocs
			for j := range round {
				runners[j] = append(runners[j], round[j]...)
			}
		}
		total, _ := absorb(allPasses(runners))
		rate := phaseRate(runners, perDecision)
		res.endToEnd(clock, median(setups), rate, 0, spent, total, heap.mean())
	} else {
		var adm adminResult
		var passes []simPass
		clock := newRefClock(o.seconds)
		for i := 0; i < single; i++ {
			pass, err := simPhase(o.seed, i, 1, 1)
			if err != nil {
				return nil, err
			}
			passes = append(passes, pass[0]...)
			simRevocations(world, revokeCycles(o.seconds), &adm)
			if i%5 == 4 {
				clock.read()
			}
		}
		decisions, sent := absorb(passes)
		res.attempted += adm.attempted
		res.failed += adm.failed
		if adm.why != "" {
			res.note("%s", adm.why)
		}
		var dropped uint64
		var violations int
		walls := make([][]float64, len(simScenarios))
		for _, p := range passes {
			dropped += p.dropped
			violations += p.violations
			for i, wall := range p.wall {
				walls[i] = append(walls[i], wall)
			}
		}
		one := [][]simPass{passes}
		m.add("checks_per_s_1caller", phaseRate(one, perDecision))
		addRevokes(m, &adm)
		for i, name := range simScenarios {
			m.add("scenario.run_s."+name, median(walls[i]))
		}
		m.add("sim_s_per_wall_s", phaseRate(one, func(p *simPass) float64 { return p.simSeconds }))
		m.add("msgs_per_check", ratio(float64(sent), float64(decisions)))
		m.add("simnet.msgs_sent", float64(sent))
		m.add("simnet.msgs_dropped", float64(dropped))
		m.add("scenario.decisions", float64(decisions))
		m.add("harness.violations", float64(violations))
		m.add("bench.speed_index", clock.speed())
	}
	if now := openFDs(); fds >= 0 && now > fds {
		res.note("sim-catalog: %d descriptors opened (want none: no socket)", now-fds)
	}
	if o.trace == 1 {
		isoSet, err := o.iso.get(o)
		if err != nil {
			res.note("%v", err)
		}
		m.merge(isoSet)
		res.metrics = m.fill(perLayer)
	}
	return res, nil
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli parses the arguments and dispatches; it returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload and end with the contract's JSON line: cached-hot | cold-tcp | churn-udp | sim-catalog (default: all four, both passes)")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 26, "run length; windows are fixed shares of it (see README.md)")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones")
		out      = fs.String("out", "", "all-workloads mode: write the stamped snapshot JSON here")
		commit   = fs.String("commit", "", "commit to stamp (default: what the toolchain recorded in the binary)")
		traceOut = fs.String("trace-out", "", "directory for the span JSONL (default: $WANAC_BENCH_SCRATCH, else the OS temp dir)")
		history  = fs.Bool("history", false, "print every end-to-end metric across the snapshots in history/")
		compare  = fs.Bool("compare", false, "compare two snapshots (files or directories of them): -compare A B")
		printC   = fs.Bool("print-contract", false, "print BENCHMARK.json from the metric catalogue")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := os.Getenv("WANAC_BENCH_DIR")
	if dir == "" {
		dir = "."
	}
	switch {
	case *printC:
		data, err := contract(int(*seconds))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	case *history:
		return printHistory(filepath.Join(dir, "history"), stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two snapshots (files or directories)")
			return 2
		}
		return compareSnapshots(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *traceOut == "" {
		*traceOut = os.Getenv("WANAC_BENCH_SCRATCH")
		if *traceOut == "" {
			*traceOut = filepath.Join(os.TempDir(), "wanac-bench")
		}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, isoScale: 1, spanCap: spanBuffer, traceOut: *traceOut, iso: &isoCache{}}

	// A run that hangs must not outlive the contract's limit.
	limit := 170 * time.Second
	if *workload == "" {
		limit *= time.Duration(2 * len(workloads))
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(stderr, "bench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *workload != "" {
		res, err := runWorkload(*workload, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res)
		fmt.Fprintln(stdout, contractLine(res))
		if !res.correct() {
			return 1
		}
		return 0
	}

	snap := snapshot{Stamp: stamp(*commit, o)}
	code := 0
	for _, wd := range workloads {
		for _, tr := range []int{0, 1} {
			o.trace = tr
			res, err := runWorkload(wd.Name, o)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printResult(stdout, res)
			snap.add(res)
			if !res.correct() {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := snap.write(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *out)
	}
	return code
}

// printResult prints every metric by name with its unit, then the verdict.
func printResult(w io.Writer, r *result) {
	pass := "end-to-end (tracing off)"
	if r.trace == 1 {
		pass = "per-layer (traced run + isolated calls)"
	}
	fmt.Fprintf(w, "== %s: %s\n", r.workload, pass)
	for _, m := range r.metrics.list {
		if m.Spread > 0 {
			fmt.Fprintf(w, "  %-42s %16.4f %-6s (slice iqr %.1f%%)\n", m.Name, m.Value, m.Unit, 100*m.Spread)
		} else {
			fmt.Fprintf(w, "  %-42s %16.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  failed_ratio %d/%d", r.failed, r.attempted)
	if r.correct() {
		fmt.Fprintln(w, "  ok")
		return
	}
	fmt.Fprintln(w, "  FAILED")
	for _, n := range append(append([]string(nil), r.notes...), r.metrics.bad...) {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}
