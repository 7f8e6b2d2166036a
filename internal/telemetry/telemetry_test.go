package telemetry

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("wanac_test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("wanac_test_total", "other help"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := reg.Gauge("wanac_test_gauge", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	v := reg.CounterVec("wanac_test_labeled_total", "help", "outcome")
	a, b := v.With("allowed"), v.With("denied")
	if a == b {
		t.Fatal("distinct label values shared a child")
	}
	if v.With("allowed") != a {
		t.Fatal("With not idempotent")
	}
	a.Inc()
	if a.Value() != 1 || b.Value() != 0 {
		t.Fatalf("labeled counters = %d,%d, want 1,0", a.Value(), b.Value())
	}
}

func TestRegistryConflictsPanic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wanac_conflict_total", "help")
	mustPanic(t, "kind conflict", func() { reg.Gauge("wanac_conflict_total", "help") })
	reg.CounterVec("wanac_labels_total", "help", "a")
	mustPanic(t, "label conflict", func() { reg.CounterVec("wanac_labels_total", "help", "b") })
	mustPanic(t, "bad name", func() { reg.Counter("0bad", "help") })
	mustPanic(t, "label arity", func() { reg.CounterVec("wanac_labels_total", "help", "a").With("x", "y") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("wanac_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []uint64{2, 1, 1, 1} // <=0.1, <=1, <=10, +Inf
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-102.6) > 1e-9 {
		t.Fatalf("sum = %v, want 102.6", s.Sum)
	}
	if sum := h.Snapshot(); sum.Count != 5 || !slices.Equal(sum.Counts, s.Counts) {
		t.Fatalf("second snapshot mismatch: %+v", sum)
	}
}

// TestDerivedCounts: a counter and a histogram that derive part of their
// value from external atomics read — through Value, Snapshot,
// MergeHistograms and the exposition — exactly as twins that were bumped
// once per event do.
func TestDerivedCounts(t *testing.T) {
	buckets := []float64{-1, 0.1, 1} // 0 falls in the second bucket, not the first
	derivedReg, bumpedReg := NewRegistry(), NewRegistry()
	family := func(reg *Registry) (*Counter, *Counter, *Histogram) {
		vec := reg.CounterVec("wanac_test_total", "help", "outcome")
		return vec.With("hit"), vec.With("miss"), reg.Histogram("wanac_test_seconds", "help", buckets)
	}
	hit, miss, lat := family(derivedReg)
	var a, b atomic.Uint64 // two owners on one registry
	for _, src := range []*atomic.Uint64{&a, &b} {
		hit.Derive(src)
		lat.DeriveZeros(src)
	}
	wantHit, wantMiss, wantLat := family(bumpedReg)

	event := func(src *atomic.Uint64) {
		src.Add(1)
		wantHit.Inc()
		wantLat.Observe(0)
	}
	for i := 0; i < 7; i++ {
		event(&a)
	}
	for i := 0; i < 5; i++ {
		event(&b)
	}
	// What is bumped directly adds to what is derived.
	hit.Add(2)
	wantHit.Add(2)
	miss.Inc()
	wantMiss.Inc()
	for _, v := range []float64{-3, 0, 0.5, 7} {
		lat.Observe(v)
		wantLat.Observe(v)
	}

	if got := hit.Value(); got != 14 {
		t.Errorf("derived counter = %d, want 7+5+2", got)
	}
	if got := miss.Value(); got != 1 {
		t.Errorf("sibling counter = %d, want 1", got)
	}
	s, want := lat.Snapshot(), wantLat.Snapshot()
	if s.Count != 16 || s.Sum != want.Sum || len(s.Counts) != len(want.Counts) {
		t.Fatalf("derived snapshot %+v, want %+v", s, want)
	}
	for i := range want.Counts {
		if s.Counts[i] != want.Counts[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Counts[i], want.Counts[i])
		}
	}
	m, err := MergeHistograms(s, s)
	if err != nil || m.Count != 32 || m.Counts[1] != 2*want.Counts[1] {
		t.Errorf("merge of derived snapshots = %+v, %v", m, err)
	}
	var got, wantText bytes.Buffer
	if err := derivedReg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := bumpedReg.WritePrometheus(&wantText); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantText.String() {
		t.Errorf("exposition of derived metrics:\n%s\nwant:\n%s", got.String(), wantText.String())
	}
	if n := testing.AllocsPerRun(100, func() { _ = hit.Value() }); n != 0 {
		t.Errorf("Value allocates %v/op, want 0", n)
	}
}

func TestBucketHelpers(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	n := normalizeBuckets([]float64{5, 1, 5, math.Inf(1), 3})
	want = []float64{1, 3, 5}
	if len(n) != len(want) {
		t.Fatalf("normalizeBuckets = %v, want %v", n, want)
	}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("normalizeBuckets = %v, want %v", n, want)
		}
	}
}

func TestWritePrometheusAndParse(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wanac_checks_total", "Completed checks.").Add(7)
	v := reg.CounterVec("wanac_outcomes_total", "By outcome.", "outcome")
	v.With("allowed").Add(3)
	v.With("denied").Inc()
	reg.Gauge("wanac_cache_entries", "Entries with \"quotes\" and \\slashes\\.").Set(12)
	reg.GaugeFunc("wanac_uptime_ratio", "Func-backed.", func() float64 { return 0.25 })
	h := reg.Histogram("wanac_latency_seconds", "Latency.\nMultiline help.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	reg.GaugeSet("wanac_peer_state", "Peer states.", []string{"peer", "state"}, func(emit func([]string, float64)) {
		emit([]string{"m1", "up"}, 1)
		emit([]string{"m0", "backoff"}, 1)
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition did not parse: %v\n%s", err, out)
	}
	wantTypes := map[string]string{
		"wanac_checks_total":    "counter",
		"wanac_outcomes_total":  "counter",
		"wanac_cache_entries":   "gauge",
		"wanac_uptime_ratio":    "gauge",
		"wanac_latency_seconds": "histogram",
		"wanac_peer_state":      "gauge",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Fatalf("family %s type = %q, want %q\n%s", name, types[name], typ, out)
		}
	}
	for _, line := range []string{
		"wanac_checks_total 7",
		`wanac_outcomes_total{outcome="allowed"} 3`,
		`wanac_outcomes_total{outcome="denied"} 1`,
		"wanac_uptime_ratio 0.25",
		`wanac_latency_seconds_bucket{le="0.01"} 1`,
		`wanac_latency_seconds_bucket{le="0.1"} 2`,
		`wanac_latency_seconds_bucket{le="+Inf"} 3`,
		"wanac_latency_seconds_count 3",
		`wanac_peer_state{peer="m0",state="backoff"} 1`,
		`wanac_peer_state{peer="m1",state="up"} 1`,
		`# HELP wanac_latency_seconds Latency.\nMultiline help.`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing line %q:\n%s", line, out)
		}
	}
	// Families must be sorted and label-escaped help must stay one line.
	if strings.Count(out, "\n# HELP") != strings.Count(out, "# HELP")-1 {
		t.Fatalf("HELP lines not each on their own line:\n%s", out)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []string{
		"wanac_orphan_total 1",                          // sample without TYPE
		"# TYPE wanac_x bogus",                          // unknown type
		"# TYPE wanac_x counter\nwanac_x notafloat",     // bad value
		"# TYPE wanac_x counter\nwanac_x{l=\"v\" 1",     // unterminated labels
		"# TYPE wanac_x counter\nwanac_x{0bad=\"v\"} 1", // bad label name
		"# TYPE wanac_x counter\nwanac_x{l=\"\\q\"} 1",  // bad escape
		"# TYPE wanac_x counter\n# TYPE wanac_x gauge",  // re-declared
		"# TYPE 0bad counter",                           // bad family name
	}
	for _, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", in)
		}
	}
	// Valid corner cases must pass.
	ok := "# some comment\n\n# TYPE wanac_x counter\nwanac_x +Inf\nwanac_x{a=\"b\\\"c\"} 2 12345\n"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Errorf("ParseText rejected valid input: %v", err)
	}
}

func TestConcurrentUpdatesWhileScraping(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("wanac_conc_total", "help")
	h := reg.Histogram("wanac_conc_seconds", "help", nil)
	v := reg.GaugeVec("wanac_conc_gauge", "help", "node")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := v.With(string(rune('a' + i)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.01)
					g.Set(float64(n))
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHotPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("wanac_alloc_total", "help")
	g := reg.Gauge("wanac_alloc_gauge", "help")
	h := reg.Histogram("wanac_alloc_seconds", "help", nil)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.003)
	}); n != 0 {
		t.Fatalf("hot path allocates %v/op, want 0", n)
	}
}

func TestEventBridge(t *testing.T) {
	reg := NewRegistry()
	col := trace.NewCollector()
	tr := InstrumentTracer(reg, col)
	for i := 0; i < 3; i++ {
		tr.Emit(trace.Event{Node: "h0", Type: trace.EventCacheHit})
	}
	tr.Emit(trace.Event{Node: "h0", Type: trace.EventAccessAllowed, App: wire.AppID("stocks")})
	if got := col.Count(trace.EventCacheHit); got != 3 {
		t.Fatalf("inner tracer saw %d cache hits, want 3", got)
	}
	// The bridge counts no hits: a host derives the cache-hit row from its
	// own hit count (DeriveCacheHits).
	v := reg.CounterVec("wanac_trace_events_total", "", "type")
	if got := v.With(trace.EventCacheHit.String()).Value(); got != 0 {
		t.Fatalf("bridge counted %d cache hits, want 0", got)
	}
	var hits atomic.Uint64
	hits.Store(5)
	DeriveCacheHits(tr, &hits)
	DeriveCacheHits(col, &hits) // not a bridge: nothing to derive
	if got := v.With(trace.EventCacheHit.String()).Value(); got != 5 {
		t.Fatalf("cache-hit row reads %d, want the derived 5", got)
	}
	if !trace.Drops(InstrumentTracer(reg, trace.Nop{}), trace.EventCacheHit) || trace.Drops(tr, trace.EventCacheHit) ||
		trace.Drops(InstrumentTracer(reg, trace.Nop{}), trace.EventAccessAllowed) {
		t.Fatal("a bridge must drop cache hits exactly when its inner tracer does, and count every other type")
	}
	if got := v.With(trace.EventAccessAllowed.String()).Value(); got != 1 {
		t.Fatalf("bridge counted %d allowed, want 1", got)
	}
	if evs := col.Events(); len(evs) != 4 || evs[3].Type != trace.EventAccessAllowed || evs[3].App != "stocks" {
		t.Fatalf("inner tracer saw %v", evs)
	}
	// Steady-state Emit (counter already cached) must not allocate
	// beyond what the inner tracer does; use a Nop inner to isolate.
	nop := InstrumentTracer(reg, trace.Nop{})
	ev := trace.Event{Node: "h0", Type: trace.EventCacheHit}
	nop.Emit(ev)
	if n := testing.AllocsPerRun(100, func() { nop.Emit(ev) }); n != 0 {
		t.Fatalf("bridge Emit allocates %v/op, want 0", n)
	}
}
