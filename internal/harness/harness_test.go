package harness

import (
	"flag"
	"testing"
)

// Replay knobs: -harness.seed replays one scenario (printed on every
// failure), -harness.drop-notices / -harness.inflate-te reproduce injected
// bugs outside the self-test.
var (
	replaySeed  = flag.Int64("harness.seed", -1, "replay a single scenario seed instead of the sweep")
	dropNotices = flag.Bool("harness.drop-notices", false, "inject bug: drop RevokeNotice messages")
	inflateTe   = flag.Bool("harness.inflate-te", false, "inject bug: managers hand out 10×Te grants")
)

// runSweep executes n seeds starting at first, failing the test with a
// minimized replay artifact for every scenario with violations.
func runSweep(t *testing.T, first, n int64, opt Options, minimizeBudget int) *SuiteReport {
	t.Helper()
	report := RunSeeds(first, n, opt, minimizeBudget, func(seed int64, res *Result) {
		if res != nil && res.Failed() {
			minimized := Minimize(Generate(seed), opt, res.Violations, minimizeBudget)
			rerun, err := RunScenario(minimized, opt)
			if err == nil && rerun.Failed() {
				rerun.Scenario = minimized
				rerun.WriteFlightArtifact()
				t.Errorf("%s", FormatFailure(rerun, opt))
			} else {
				res.WriteFlightArtifact()
				t.Errorf("%s", FormatFailure(res, opt))
			}
		}
	})
	for _, e := range report.Errors {
		t.Errorf("scenario build error: %s", e)
	}
	return report
}

// TestHarnessQuick is the tier-1 wiring: a sweep of seeded random scenarios
// across the configuration lattice, every oracle silent. With
// -harness.seed=N it instead replays exactly seed N, which is how failures
// reported by the sweep (or by `acsim check`) are reproduced.
func TestHarnessQuick(t *testing.T) {
	opt := Options{DropRevokeNotices: *dropNotices, InflateTe: *inflateTe}
	if *replaySeed >= 0 {
		sc := Generate(*replaySeed)
		t.Logf("replaying %s", sc)
		res, err := RunScenario(sc, opt)
		if err != nil {
			t.Fatalf("replay seed %d: %v", *replaySeed, err)
		}
		if res.Failed() {
			res.WriteFlightArtifact()
			t.Errorf("%s", FormatFailure(res, opt))
		}
		return
	}
	const scenarios = 75
	report := runSweep(t, 1, scenarios, opt, 60)
	if report.Scenarios != scenarios {
		t.Fatalf("ran %d scenarios, want %d", report.Scenarios, scenarios)
	}
	// A sweep that never exercised the protocol would pass vacuously; insist
	// every oracle judged real traffic.
	for _, o := range report.Oracles {
		if o.Observations == 0 {
			t.Errorf("oracle %s made no observations across %d scenarios", o.Name, scenarios)
		}
	}
	if report.Decisions == 0 {
		t.Error("no check decisions across the sweep")
	}
}

// TestGenerateDeterministic: the same seed must yield the identical
// scenario — the property every replay depends on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d generated two different scenarios:\n%s\n---\n%s", seed, a, b)
		}
		p := a.Params
		if p.Managers < 1 || p.Managers > 5 {
			t.Fatalf("seed %d: M=%d outside {1..5}", seed, p.Managers)
		}
		if p.CheckQuorum < 1 || p.CheckQuorum > p.Managers {
			t.Fatalf("seed %d: C=%d outside [1,%d]", seed, p.CheckQuorum, p.Managers)
		}
		for _, rate := range p.HostClockRates {
			if rate < p.ClockBound || rate > 1 {
				t.Fatalf("seed %d: clock rate %v outside [%v,1]", seed, rate, p.ClockBound)
			}
		}
		for i := 1; i < len(a.Events); i++ {
			if a.Events[i].At < a.Events[i-1].At {
				t.Fatalf("seed %d: schedule not time-ordered at %d", seed, i)
			}
		}
	}
}

// TestRunDeterministic: replaying a scenario reproduces the identical
// result, oracle counts included.
func TestRunDeterministic(t *testing.T) {
	sc := Generate(7)
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Decisions != b.Decisions || a.Invokes != b.Invokes {
		t.Fatalf("replay diverged: decisions %d/%d invokes %d/%d", a.Decisions, b.Decisions, a.Invokes, b.Invokes)
	}
	for i := range a.Oracles {
		if a.Oracles[i] != b.Oracles[i] {
			t.Fatalf("replay diverged on oracle %v vs %v", a.Oracles[i], b.Oracles[i])
		}
	}
}

// TestOracleCatchesInjectedBug proves the revocation-safety oracle is live:
// with managers handing out 10×Te grants and RevokeNotices dropped on the
// wire, revoked users survive in host caches far past the bound, the oracle
// must fire, the failure must replay from its seed, and minimization must
// keep it failing.
func TestOracleCatchesInjectedBug(t *testing.T) {
	opt := Options{InflateTe: true, DropRevokeNotices: true}
	var caught *Result
	var seed int64
	for seed = 1; seed <= 30; seed++ {
		res, err := RunScenario(Generate(seed), opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if hasViolation(res, OracleRevocation) {
			caught = res
			break
		}
	}
	if caught == nil {
		t.Fatal("revocation-safety oracle never fired across 30 seeds of an injected revocation bug")
	}
	t.Logf("injected bug caught at seed %d: %s", seed, caught.Violations[0])

	// Replayability: the same seed must reproduce the identical violations.
	again, err := RunScenario(Generate(seed), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Violations) != len(caught.Violations) {
		t.Fatalf("replay found %d violations, first run %d", len(again.Violations), len(caught.Violations))
	}
	for i := range again.Violations {
		if again.Violations[i] != caught.Violations[i] {
			t.Fatalf("replay violation %d differs: %s vs %s", i, again.Violations[i], caught.Violations[i])
		}
	}

	// Minimization must shrink the schedule while preserving the failure.
	full := Generate(seed)
	minimized := Minimize(full, opt, caught.Violations, 60)
	if len(minimized.Events) >= len(full.Events) {
		t.Errorf("minimization did not shrink: %d -> %d events", len(full.Events), len(minimized.Events))
	}
	res, err := RunScenario(minimized, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasViolation(res, OracleRevocation) {
		t.Error("minimized scenario no longer triggers the revocation oracle")
	}
	t.Logf("minimized %d -> %d events", len(full.Events), len(minimized.Events))
}

func hasViolation(res *Result, oracle string) bool {
	for _, v := range res.Violations {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestRunSeedsRunsAFailingScenarioOnce: a failing seed costs RunSeeds its
// own run, the minimizer's trials and the minimized replay for the flight
// dump. The minimizer takes the failure signature from the seed's run
// instead of running the full scenario again, though it charges that run to
// its budget: with the budget spent, the seed costs budget + 1 runs.
func TestRunSeedsRunsAFailingScenarioOnce(t *testing.T) {
	t.Setenv("WANAC_ARTIFACTS", t.TempDir())
	const budget = 8
	opt := Options{InflateTe: true, DropRevokeNotices: true}
	before := scenarioRuns.Load()
	report := RunSeeds(1, 1, opt, budget, nil)
	runs := scenarioRuns.Load() - before
	if len(report.Failures) != 1 {
		t.Fatalf("seed 1 reported %d failures under the injected bugs, want 1", len(report.Failures))
	}
	if runs != budget+1 {
		t.Errorf("a failing seed took %d scenario runs at minimize budget %d, want %d", runs, budget, budget+1)
	}
}

// TestMinimizeNonFailing: a clean scenario passes through untouched.
func TestMinimizeNonFailing(t *testing.T) {
	sc := Generate(3)
	res, err := RunScenario(sc, Options{})
	if err != nil || res.Failed() {
		t.Fatalf("seed 3 is not clean: %v %v", err, res.Violations)
	}
	out := Minimize(sc, Options{}, res.Violations, 5)
	if len(out.Events) != len(sc.Events) {
		t.Fatalf("minimize altered a passing scenario: %d -> %d events", len(sc.Events), len(out.Events))
	}
}

// TestSuiteReportShape exercises RunSeeds aggregation over a couple of
// clean seeds, the code path `acsim check` renders as JSON.
func TestSuiteReportShape(t *testing.T) {
	var progressed int
	report := RunSeeds(11, 2, Options{}, 0, func(int64, *Result) { progressed++ })
	if progressed != 2 || report.Scenarios != 2 {
		t.Fatalf("progress=%d scenarios=%d, want 2/2", progressed, report.Scenarios)
	}
	if !report.Passed() {
		t.Fatalf("clean seeds reported failure: %+v", report.Failures)
	}
	if len(report.Oracles) != 5 {
		t.Fatalf("got %d oracle reports, want 5", len(report.Oracles))
	}
	names := map[string]bool{}
	for _, o := range report.Oracles {
		names[o.Name] = true
	}
	for _, want := range []string{OracleRevocation, OracleSequencing, OracleCache, OracleAvailability} {
		if !names[want] {
			t.Errorf("missing oracle %q in suite report", want)
		}
	}
}
