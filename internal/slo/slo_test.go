package slo

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanac/internal/telemetry"
)

// fakeClock is an explicit test clock the engine reads through Now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeSource is a mutable cumulative (good, total) event source.
type fakeSource struct{ good, total float64 }

func (s *fakeSource) add(good, bad float64) { s.good += good; s.total += good + bad }
func (s *fakeSource) read() (float64, float64) {
	return s.good, s.total
}

func spec(src *fakeSource) Spec {
	return Spec{
		Name:       "test",
		Objective:  0.9, // 10% error budget
		Window:     60 * time.Second,
		FastWindow: 10 * time.Second,
		SlowWindow: 30 * time.Second,
		FastBurn:   6,
		SlowBurn:   3,
		Indicator:  Ratio(src.read),
	}
}

func TestEngineIdleReportsHealthy(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))

	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		sts := e.Sample()
		st := sts[0]
		if st.SLI != 1 || st.FastBurn != 0 || st.SlowBurn != 0 || st.BudgetConsumed != 0 || st.Firing {
			t.Fatalf("idle sample %d: want healthy status, got %+v", i, st)
		}
	}
	if n := len(e.Transitions()); n != 0 {
		t.Fatalf("idle engine recorded %d transitions", n)
	}
}

func TestEngineWindowedSLI(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))
	e.Sample() // baseline at t=0

	// 20s of all-good traffic, 10 events/s.
	for i := 0; i < 20; i++ {
		src.add(10, 0)
		clk.Advance(time.Second)
		e.Sample()
	}
	// 10s of half-bad traffic: the fast (10s) window sees SLI 0.5 while
	// the slow (30s) window still blends in the good prefix.
	var st Status
	for i := 0; i < 10; i++ {
		src.add(5, 5)
		clk.Advance(time.Second)
		st = e.Sample()[0]
	}
	if got := st.FastBurn; math.Abs(got-5.0) > 0.01 {
		t.Fatalf("fast burn = %v, want ~5 (SLI 0.5 against 10%% budget)", got)
	}
	// Slow window: 20s good (200 events) + 10s half-bad (100 events, 50
	// bad) = 50/300 bad → burn (50/300)/0.1 = 1.67.
	if got := st.SlowBurn; math.Abs(got-50.0/300/0.1) > 0.01 {
		t.Fatalf("slow burn = %v, want ~1.67", got)
	}
}

func TestEngineMultiWindowAlertFiresAndClears(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))
	e.Sample() // baseline at t=0

	// Healthy baseline.
	for i := 0; i < 30; i++ {
		src.add(10, 0)
		clk.Advance(time.Second)
		e.Sample()
	}
	// Total outage: SLI 0 → burn 10 in every window once it fills. The
	// fast threshold (6) trips quickly; the slow window (30s, threshold 3)
	// must accumulate >30% bad before the alert fires — both-windows
	// gating, not fast alone.
	firedAt := time.Duration(-1)
	for i := 0; i < 30; i++ {
		src.add(0, 10)
		clk.Advance(time.Second)
		st := e.Sample()[0]
		if st.Firing && firedAt < 0 {
			firedAt = time.Duration(i+1) * time.Second
		}
	}
	if firedAt < 0 {
		t.Fatalf("alert never fired during outage")
	}
	if firedAt < 5*time.Second {
		t.Fatalf("alert fired at +%s: slow window should gate the first seconds", firedAt)
	}
	st := e.Status()[0]
	if !st.Firing || st.Fired != 1 {
		t.Fatalf("after outage: firing=%v fired=%d, want firing once", st.Firing, st.Fired)
	}

	// Recovery: the fast window drains first and clears the alert even
	// while the slow window still remembers the outage.
	clearedAt := time.Duration(-1)
	for i := 0; i < 15; i++ {
		src.add(10, 0)
		clk.Advance(time.Second)
		st := e.Sample()[0]
		if !st.Firing && clearedAt < 0 {
			clearedAt = time.Duration(i+1) * time.Second
		}
	}
	if clearedAt < 0 {
		t.Fatalf("alert never cleared after recovery")
	}
	if st := e.Status()[0]; st.SlowBurn < 3 {
		t.Fatalf("slow burn %v already recovered at clear time: clear should be fast-window driven", st.SlowBurn)
	}

	trs := e.Transitions()
	if len(trs) != 2 || !trs[0].Firing || trs[1].Firing {
		t.Fatalf("transitions = %+v, want one rise then one clear", trs)
	}
}

func TestEngineBudgetAccounting(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	sp := spec(src)
	e := NewEngine(clk.Now, sp)
	e.Sample() // baseline at t=0

	// Exactly the budget: 10% bad over the full 60s window.
	for i := 0; i < 60; i++ {
		src.add(9, 1)
		clk.Advance(time.Second)
		e.Sample()
	}
	st := e.Status()[0]
	if math.Abs(st.BudgetConsumed-1.0) > 0.01 {
		t.Fatalf("budget consumed = %v, want ~1.0 at exactly-budget error rate", st.BudgetConsumed)
	}
	if math.Abs(st.SLI-0.9) > 0.001 {
		t.Fatalf("SLI = %v, want 0.9", st.SLI)
	}
}

func TestEngineLatencyIndicator(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("slo_test_latency_seconds", "test", []float64{0.1, 1, 10})
	clk := &fakeClock{t: time.Unix(0, 0)}
	e := NewEngine(clk.Now, Spec{
		Name:      "latency",
		Objective: 0.5,
		Window:    time.Minute,
		Indicator: Latency(1, h.Snapshot), // good = observations <= 1s
	})
	e.Sample() // baseline before any observations

	h.Observe(0.05) // good
	h.Observe(0.5)  // good
	h.Observe(5)    // bad
	h.Observe(50)   // bad (overflow bucket)
	clk.Advance(time.Second)
	st := e.Sample()[0]
	if st.Good != 2 || st.Total != 4 {
		t.Fatalf("latency indicator read good=%v total=%v, want 2/4", st.Good, st.Total)
	}
	if st.SLI != 0.5 {
		t.Fatalf("SLI = %v, want 0.5", st.SLI)
	}

	// Observations the histogram derives from an external count (a host's
	// cache hits: latency 0) are good events like any other.
	var hits atomic.Uint64
	h.DeriveZeros(&hits)
	hits.Add(4)
	clk.Advance(time.Second)
	if st := e.Sample()[0]; st.Good != 6 || st.Total != 8 {
		t.Fatalf("with 4 derived zeros the indicator read good=%v total=%v, want 6/8", st.Good, st.Total)
	}
}

func TestEngineSourceResetStartsFreshBaseline(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))
	e.Sample() // baseline at t=0

	src.add(0, 100) // all bad
	clk.Advance(time.Second)
	e.Sample()
	if st := e.Status()[0]; st.FastBurn == 0 {
		t.Fatalf("expected nonzero burn before reset")
	}

	// Source restarts (counters drop): the engine must not report a
	// negative window delta; it rebaselines and reports healthy.
	*src = fakeSource{}
	src.add(10, 0)
	clk.Advance(time.Second)
	st := e.Sample()[0]
	if st.SLI != 1 || st.FastBurn != 0 {
		t.Fatalf("after source reset: %+v, want fresh healthy baseline", st)
	}
}

func TestEnginePruneKeepsWindowBaseline(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))

	// Run far past the horizon; the ring must stay bounded but the full
	// budget window must still have a baseline.
	for i := 0; i < 1000; i++ {
		src.add(9, 1)
		clk.Advance(time.Second)
		e.Sample()
	}
	se := e.series[0]
	if n := len(se.points); n > 70 {
		t.Fatalf("series retained %d points; prune horizon leaking", n)
	}
	if st := e.Status()[0]; math.Abs(st.BudgetConsumed-1.0) > 0.05 {
		t.Fatalf("budget consumed = %v after long run, want ~1.0", st.BudgetConsumed)
	}
}

func TestEngineRegisterExportsState(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	src := &fakeSource{}
	e := NewEngine(clk.Now, spec(src))
	reg := telemetry.NewRegistry()
	e.Register(reg)

	for i := 0; i < 30; i++ {
		src.add(0, 10)
		clk.Advance(time.Second)
		e.Sample()
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if _, err := telemetry.ParseText(strings.NewReader(text)); err != nil {
		t.Fatalf("exported SLO metrics do not parse: %v\n%s", err, text)
	}
	for _, want := range []string{
		`wanac_slo_sli{slo="test"} 0`,
		`wanac_slo_objective{slo="test"} 0.9`,
		`wanac_slo_burn_rate{slo="test",window="fast"} 10`,
		`wanac_slo_burn_rate{slo="test",window="slow"} 10`,
		`wanac_slo_alert_firing{slo="test"} 1`,
		`wanac_slo_alerts_fired_total{slo="test"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	for _, bad := range []Spec{
		{},                          // no name
		{Name: "x", Objective: 0},   // objective out of range
		{Name: "x", Objective: 1},   // objective out of range
		{Name: "x", Objective: 0.9}, // no indicator
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(%+v) did not panic", bad)
				}
			}()
			NewEngine(clk.Now, bad)
		}()
	}
}
