package telemetry

import (
	"fmt"
	"testing"
)

// TestRegistryReadsMatchExposition: Registry.Sum and Registry.HistogramFrom,
// which read families in place, answer what Metrics.Sum and
// Metrics.HistogramFrom read from the registry's gathered model.
func TestRegistryReadsMatchExposition(t *testing.T) {
	reg := goldenRegistry()
	reg.HistogramFunc("g_flush_frames", "A func-backed histogram.", []float64{1, 4}, func() HistogramSnapshot {
		return HistogramSnapshot{Upper: []float64{1, 4}, Counts: []uint64{2, 1, 1}, Count: 4, Sum: 9}
	})
	m := reg.Gather()
	for _, c := range []struct{ fam, label, value string }{
		{"g_plain_total", "", ""},
		{"g_requests_total", "", ""},
		{"g_requests_total", "method", "get"},
		{"g_requests_total", "code", "500"},
		{"g_peer_state", "state", "up"},
		{"g_temperature_celsius", "", ""},
		{"g_escaped_total", "v", "q\"uo\\te\nd"},
		{"g_empty_total", "", ""},
		{"g_missing_total", "", ""},
	} {
		if in, gathered := reg.Sum(c.fam, c.label, c.value), m.Sum(c.fam, c.label, c.value); in != gathered {
			t.Errorf("Sum(%q, %q, %q): in place %g, gathered %g", c.fam, c.label, c.value, in, gathered)
		}
	}
	if got := reg.Sum("g_requests_total", "method", "get"); got != 5 {
		t.Errorf("Sum of g_requests_total{method=get} = %g, want 5", got)
	}
	for _, fam := range []string{"g_latency_seconds", "g_flush_frames"} {
		in, err := reg.HistogramFrom(fam)
		if err != nil {
			t.Fatal(err)
		}
		gathered, err := m.HistogramFrom(fam)
		if err != nil {
			t.Fatal(err)
		}
		if in.Count != gathered.Count || in.Sum != gathered.Sum ||
			fmt.Sprint(in.Upper, in.Counts) != fmt.Sprint(gathered.Upper, gathered.Counts) {
			t.Errorf("%s: in place %+v, gathered %+v", fam, in, gathered)
		}
	}
	if _, err := reg.HistogramFrom("g_plain_total"); err == nil {
		t.Error("HistogramFrom read a counter family as a histogram")
	}
}

// TestInPlaceReadsAllocationBudget pins what a scenario's SLO sample pays
// per read: Sum over a counter family allocates nothing, HistogramFrom one
// bucket-count slice however many children it merges.
func TestInPlaceReadsAllocationBudget(t *testing.T) {
	reg := goldenRegistry()
	if n := testing.AllocsPerRun(100, func() { reg.Sum("g_requests_total", "method", "get") }); n != 0 {
		t.Errorf("Sum allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { reg.HistogramFrom("g_latency_seconds") }); n != 1 {
		t.Errorf("HistogramFrom allocates %v/op, want 1", n)
	}
}
