package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestMergeHistogramsProperty: for random bucket layouts and random
// observation sets split across two histograms, the merged snapshot's
// count, sum and bucket counts equal those of one histogram that absorbed
// every observation.
func TestMergeHistogramsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nb := 1 + rng.Intn(12)
		buckets := make([]float64, nb)
		u := rng.Float64() + 0.01
		for i := range buckets {
			buckets[i] = u
			u *= 1 + rng.Float64()*3
		}
		a := newHistogram(buckets)
		b := newHistogram(buckets)
		all := newHistogram(buckets)
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			// Spread observations across buckets including overflow.
			v := rng.Float64() * buckets[nb-1] * 1.5
			if rng.Intn(2) == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			all.Observe(v)
		}
		merged, err := MergeHistograms(a.Snapshot(), b.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: merge failed: %v", trial, err)
		}
		want := all.Snapshot()
		if merged.Count != want.Count {
			t.Fatalf("trial %d: merged count %d, want %d", trial, merged.Count, want.Count)
		}
		if math.Abs(merged.Sum-want.Sum) > 1e-9*math.Max(1, math.Abs(want.Sum)) {
			t.Fatalf("trial %d: merged sum %v, want %v", trial, merged.Sum, want.Sum)
		}
		for i := range want.Counts {
			if merged.Counts[i] != want.Counts[i] {
				t.Fatalf("trial %d: bucket %d count %d, want %d", trial, i, merged.Counts[i], want.Counts[i])
			}
		}
	}
}

func TestMergeHistogramsLayoutMismatch(t *testing.T) {
	a := newHistogram([]float64{1, 2}).Snapshot()
	b := newHistogram([]float64{1, 3}).Snapshot()
	if _, err := MergeHistograms(a, b); err == nil {
		t.Fatalf("merging different bounds did not fail")
	}
	c := newHistogram([]float64{1}).Snapshot()
	if _, err := MergeHistograms(a, c); err == nil {
		t.Fatalf("merging different bucket counts did not fail")
	}
}

// Histogram edge cases the SLO math depends on -------------------------

func TestHistogramOverflowObservations(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.Observe(5)   // above top bucket
	h.Observe(500) // far above
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 2 {
		t.Fatalf("overflow bucket count = %d, want 2", s.Counts[len(s.Counts)-1])
	}
	if s.Count != 2 || s.Sum != 505 {
		t.Fatalf("count=%d sum=%v, want 2/505", s.Count, s.Sum)
	}
}

// ParseMetrics / HistogramFrom -----------------------------------------

func TestParseMetricsSamples(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("pm_requests_total", "requests", "code").With("200").Add(7)
	reg.CounterVec("pm_requests_total", "requests", "code").With(`we"ird\label` + "\n").Add(1)
	reg.Gauge("pm_temp", "temperature").Set(-3.5)
	h := reg.Histogram("pm_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(3)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseMetrics: %v\n%s", err, b.String())
	}
	if m.Types["pm_requests_total"] != "counter" || m.Types["pm_lat_seconds"] != "histogram" {
		t.Fatalf("types = %v", m.Types)
	}
	if m.Help["pm_temp"] != "temperature" {
		t.Fatalf("help = %v", m.Help)
	}
	find := func(name, labelName, labelValue string) *Sample {
		for i := range m.Samples {
			s := &m.Samples[i]
			if s.Name != name {
				continue
			}
			if labelName == "" {
				return s
			}
			if v, ok := s.Label(labelName); ok && v == labelValue {
				return s
			}
		}
		return nil
	}
	if s := find("pm_requests_total", "code", "200"); s == nil || s.Value != 7 {
		t.Fatalf("pm_requests_total{code=200} = %+v, want 7", s)
	}
	// Escaped label values round-trip through write→parse.
	if s := find("pm_requests_total", "code", `we"ird\label`+"\n"); s == nil || s.Value != 1 {
		t.Fatalf("escaped label sample missing: %+v", m.Samples)
	}
	if s := find("pm_temp", "", ""); s == nil || s.Value != -3.5 {
		t.Fatalf("pm_temp = %+v, want -3.5", s)
	}
	if s := find("pm_lat_seconds_count", "", ""); s == nil || s.Value != 2 {
		t.Fatalf("histogram count sample = %+v, want 2", s)
	}
	if m.Family("pm_lat_seconds_bucket") != "pm_lat_seconds" || m.Family("pm_temp") != "pm_temp" {
		t.Fatalf("Family mapping wrong")
	}

	// HistogramFrom inverts the cumulative rendering exactly.
	snap, err := m.HistogramFrom("pm_lat_seconds")
	if err != nil {
		t.Fatal(err)
	}
	want := h.Snapshot()
	if snap.Count != want.Count || snap.Sum != want.Sum {
		t.Fatalf("HistogramFrom count/sum = %d/%v, want %d/%v", snap.Count, snap.Sum, want.Count, want.Sum)
	}
	for i := range want.Counts {
		if snap.Counts[i] != want.Counts[i] {
			t.Fatalf("HistogramFrom bucket %d = %d, want %d", i, snap.Counts[i], want.Counts[i])
		}
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	start := reg.Gauge("wanac_process_start_time_seconds", "").Value()
	if start <= 0 {
		t.Fatalf("start time = %v, want > 0", start)
	}
	RegisterBuildInfo(reg) // idempotent: start time must not move
	if got := reg.Gauge("wanac_process_start_time_seconds", "").Value(); got != start {
		t.Fatalf("start time moved on re-registration: %v -> %v", start, got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "wanac_build_info{") || !strings.Contains(text, `go_version="go`) {
		t.Fatalf("build info exposition missing fields:\n%s", text)
	}
	if _, err := ParseText(strings.NewReader(text)); err != nil {
		t.Fatalf("build info exposition does not parse: %v", err)
	}
}
