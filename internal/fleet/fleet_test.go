package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wanac/internal/telemetry"
)

// node is a fake acnode for scrape tests: a real telemetry registry
// served over a real HTTP listener, so the monitor exercises the same
// write→parse→merge path it runs against a deployment.
type node struct {
	reg *telemetry.Registry
	srv *httptest.Server
}

func newNode(t *testing.T) *node {
	t.Helper()
	n := &node{reg: telemetry.NewRegistry()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if err := n.reg.WritePrometheus(w); err != nil {
			t.Errorf("write exposition: %v", err)
		}
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *node) target(name string) Target {
	return Target{Name: name, Addr: strings.TrimPrefix(n.srv.URL, "http://")}
}

func scrape(t *testing.T, m *Monitor) {
	t.Helper()
	if err := m.ScrapeOnce(context.Background()); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}
}

// TestRevocationHistogramRollupExact is the acceptance criterion from
// the issue: acmon's fleet rollup of
// wanac_manager_revocation_propagation_seconds must match the per-node
// expositions exactly — every merged cumulative bucket equals the sum
// of the nodes' buckets, with no estimation step in between.
func TestRevocationHistogramRollupExact(t *testing.T) {
	a, b := newNode(t), newNode(t)
	const fam = "wanac_manager_revocation_propagation_seconds"
	ha := a.reg.Histogram(fam, "Propagation lag.", nil)
	hb := b.reg.Histogram(fam, "Propagation lag.", nil)
	for _, v := range []float64{0.001, 0.004, 0.3, 2.5, 40} {
		ha.Observe(v)
	}
	for _, v := range []float64{0.002, 0.3, 0.31, 100} {
		hb.Observe(v)
	}

	m := New(Config{Targets: []Target{a.target("a"), b.target("b")}, Te: 30 * time.Second})
	scrape(t, m)

	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	merged, err := telemetry.ParseMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-exported exposition does not parse: %v", err)
	}
	got, err := merged.HistogramFrom(fam)
	if err != nil {
		t.Fatal(err)
	}
	want, err := telemetry.MergeHistograms(ha.Snapshot(), hb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("rollup count/sum = %d/%g, want %d/%g", got.Count, got.Sum, want.Count, want.Sum)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("rollup has %d buckets, want %d", len(got.Counts), len(want.Counts))
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d = %d, want %d (exact rollup violated)", i, got.Counts[i], want.Counts[i])
		}
	}
}

// TestGaugeFoldPolicies pins the per-family gauge folds: effective Te
// takes the fleet max, process start time the min, and plain gauges sum.
func TestGaugeFoldPolicies(t *testing.T) {
	a, b := newNode(t), newNode(t)
	a.reg.Gauge("wanac_manager_effective_te_seconds", "Te.").Set(30)
	b.reg.Gauge("wanac_manager_effective_te_seconds", "Te.").Set(120)
	a.reg.Gauge("wanac_process_start_time_seconds", "Start.").Set(1000)
	b.reg.Gauge("wanac_process_start_time_seconds", "Start.").Set(2000)
	a.reg.Gauge("wanac_host_cache_entries", "Entries.").Set(7)
	b.reg.Gauge("wanac_host_cache_entries", "Entries.").Set(5)

	m := New(Config{Targets: []Target{a.target("a"), b.target("b")}})
	scrape(t, m)

	mg := m.latest()
	for _, tc := range []struct {
		series string
		want   float64
	}{
		{"wanac_manager_effective_te_seconds", 120},
		{"wanac_process_start_time_seconds", 1000},
		{"wanac_host_cache_entries", 12},
	} {
		if got := mg.Sum(tc.series, "", ""); got != tc.want {
			t.Errorf("%s folded to %g, want %g", tc.series, got, tc.want)
		}
	}
}

// TestOwnFamiliesWinCollisions: the nodes also export wanac_build_info
// and wanac_process_start_time_seconds; the re-export must carry the
// monitor's own single sample for its families, not a fleet fold.
func TestOwnFamiliesWinCollisions(t *testing.T) {
	a, b := newNode(t), newNode(t)
	telemetry.RegisterBuildInfo(a.reg)
	telemetry.RegisterBuildInfo(b.reg)

	m := New(Config{Targets: []Target{a.target("a"), b.target("b")}})
	scrape(t, m)

	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-exported exposition does not parse: %v", err)
	}
	infos := 0
	for _, s := range parsed.Samples {
		if s.Name == "wanac_build_info" {
			infos++
			if s.Value != 1 {
				t.Errorf("wanac_build_info = %g, want the monitor's own 1 (nodes' copies excluded)", s.Value)
			}
		}
	}
	if infos != 1 {
		t.Errorf("re-export carries %d wanac_build_info samples, want exactly the monitor's own", infos)
	}
}

// TestFleetSLOAndHealth drives the monitor with a fake clock: a healthy
// fleet answers /health 200; sustained all-bad checks push the fleet
// check-availability burn rate over both windows and /health flips to
// 503 naming the firing SLO.
func TestFleetSLOAndHealth(t *testing.T) {
	n := newNode(t)
	checks := n.reg.CounterVec("wanac_host_checks_total", "Checks.", "outcome")
	allowed := checks.With("allowed")
	defaulted := checks.With("default_allowed")
	allowed.Add(1000)

	now := time.Unix(1e9, 0)
	m := New(Config{
		Targets: []Target{n.target("h0")},
		Now:     func() time.Time { return now },
	})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	scrape(t, m)
	if code, body := get("/health"); code != http.StatusOK {
		t.Fatalf("healthy fleet /health = %d: %s", code, body)
	}

	// 30 minutes of pure default-allow traffic: burn 100× on a 99%
	// objective, far past the 14.4/6 thresholds on both alert windows.
	for i := 0; i < 60; i++ {
		now = now.Add(30 * time.Second)
		defaulted.Add(500)
		scrape(t, m)
	}
	code, body := get("/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("burning fleet /health = %d, want 503: %s", code, body)
	}
	if !strings.Contains(body, "slo:check-availability") {
		t.Fatalf("/health does not name the firing SLO: %s", body)
	}

	// The exposition reports the firing alert and parses strictly.
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if _, err := telemetry.ParseMetrics(strings.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	want := `wanac_slo_alert_firing{slo="check-availability"} 1`
	if !strings.Contains(metrics, want) {
		t.Fatalf("/metrics missing %q", want)
	}
	if !strings.Contains(m.Dashboard(), "FIRING") {
		t.Fatalf("dashboard does not show the firing alert:\n%s", m.Dashboard())
	}
}

// TestScrapeFailureDegrades: a dead target flips /health to 503 and
// shows up in targets_up and the per-target scrape error counters, but
// the round still merges the live targets.
func TestScrapeFailureDegrades(t *testing.T) {
	live := newNode(t)
	live.reg.Counter("wanac_host_checks_seen_total", "Seen.").Add(3)
	dead := newNode(t)
	deadTarget := dead.target("dead")
	dead.srv.Close()

	m := New(Config{Targets: []Target{live.target("live"), deadTarget}})
	if err := m.ScrapeOnce(context.Background()); err != nil {
		t.Fatalf("partial round should not error: %v", err)
	}
	healthy, detail := m.Healthy()
	if healthy {
		t.Fatal("fleet with a dead target reports healthy")
	}
	if _, ok := detail["target:dead"]; !ok {
		t.Fatalf("health detail does not name the dead target: %v", detail)
	}
	if got := m.latest().Sum("wanac_host_checks_seen_total", "", ""); got != 3 {
		t.Fatalf("live target's families not merged: got %g", got)
	}

	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "wanac_fleet_targets_up 1") {
		t.Fatalf("exposition missing wanac_fleet_targets_up 1:\n%s", out)
	}
	if !strings.Contains(out, `wanac_fleet_scrapes_total{target="dead",outcome="error"} 1`) {
		t.Fatalf("exposition missing dead target's error counter:\n%s", out)
	}
	if m.Dashboard() == "" || !strings.Contains(m.Dashboard(), "DOWN") {
		t.Fatalf("dashboard does not flag the dead target:\n%s", m.Dashboard())
	}
}

// TestJSONLSnapshots: every scrape appends one parseable JSON line with
// the fleet verdict and per-SLO state.
func TestJSONLSnapshots(t *testing.T) {
	n := newNode(t)
	n.reg.CounterVec("wanac_host_checks_total", "Checks.", "outcome").With("allowed").Add(10)

	var out bytes.Buffer
	m := New(Config{Targets: []Target{n.target("h0")}, JSONL: &out})
	scrape(t, m)
	scrape(t, m)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for _, line := range lines {
		var snap struct {
			Healthy   bool `json:"healthy"`
			Targets   int  `json:"targets"`
			TargetsUp int  `json:"targets_up"`
			SLO       []struct {
				Name string  `json:"name"`
				SLI  float64 `json:"sli"`
			} `json:"slo"`
		}
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if !snap.Healthy || snap.TargetsUp != 1 || snap.Targets != 1 {
			t.Fatalf("unexpected snapshot: %s", line)
		}
		if len(snap.SLO) == 0 {
			t.Fatalf("snapshot has no SLO entries: %s", line)
		}
	}
}

// TestMergedLabeledSeries: series merge per full label set — same
// labels sum across nodes, different label values stay distinct.
func TestMergedLabeledSeries(t *testing.T) {
	a, b := newNode(t), newNode(t)
	av := a.reg.CounterVec("wanac_transport_lane_drops_total", "Drops.", "lane")
	bv := b.reg.CounterVec("wanac_transport_lane_drops_total", "Drops.", "lane")
	av.With("bulk").Add(4)
	av.With("high").Add(1)
	bv.With("bulk").Add(6)

	m := New(Config{Targets: []Target{a.target("a"), b.target("b")}})
	scrape(t, m)
	mg := m.latest()
	byLane := func(lane string) float64 {
		return mg.Sum("wanac_transport_lane_drops_total", "lane", lane)
	}
	if got := byLane("bulk"); got != 10 {
		t.Errorf("bulk drops = %g, want 10", got)
	}
	if got := byLane("high"); got != 1 {
		t.Errorf("high drops = %g, want 1", got)
	}
}

// TestTypeConflictRejected: a family that one node declares counter and
// another gauge poisons the merge with a clear error instead of folding
// nonsense.
func TestTypeConflictRejected(t *testing.T) {
	roll, at := newRollup()
	one, err := telemetry.ParseMetrics(strings.NewReader(
		"# TYPE wanac_thing counter\nwanac_thing 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	two, err := telemetry.ParseMetrics(strings.NewReader(
		"# TYPE wanac_thing gauge\nwanac_thing 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fold(roll, at, one); err != nil {
		t.Fatal(err)
	}
	if err := fold(roll, at, two); err == nil {
		t.Fatal("conflicting family types merged without error")
	}
}

// TestRunLoopScrapes: Run scrapes immediately and on the interval until
// the context ends.
func TestRunLoopScrapes(t *testing.T) {
	n := newNode(t)
	m := New(Config{Targets: []Target{n.target("h0")}, Every: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := m.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
	m.mu.Lock()
	got := m.scrapes
	m.mu.Unlock()
	if got < 2 {
		t.Fatalf("Run completed %d scrape rounds, want >= 2", got)
	}
}

// TestDashboardBeforeFirstScrape renders a stable placeholder rather
// than a zero-time header.
func TestDashboardBeforeFirstScrape(t *testing.T) {
	n := newNode(t)
	m := New(Config{Targets: []Target{n.target("h0")}})
	if got := m.Dashboard(); !strings.Contains(got, "no scrape yet") {
		t.Fatalf("pre-scrape dashboard: %q", got)
	}
	if healthy, _ := m.Healthy(); healthy {
		t.Fatal("monitor healthy before any scrape")
	}
}

func ExampleMonitor_Dashboard() {
	// Not runnable against live nodes in an example; shown for shape.
	fmt.Println("wanac fleet — HEALTHY — 3/3 targets up")
	// Output: wanac fleet — HEALTHY — 3/3 targets up
}

// textTarget serves a fixed exposition on /metrics.
func textTarget(t *testing.T, name, body string) Target {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return Target{Name: name, Addr: strings.TrimPrefix(srv.URL, "http://")}
}

// rollupNodeA and rollupNodeB are two fixed node expositions: an escaped
// label value, labelled and unlabelled series of one family, histogram
// label sets whose le bounds sort differently as text and as numbers, a
// max-folded gauge and a family the monitor exports itself.
const rollupNodeA = `# HELP wanac_fleet_targets A node-side family named like the monitor's own.
# TYPE wanac_fleet_targets gauge
wanac_fleet_targets 7
# HELP wanac_host_checks_total Checks.
# TYPE wanac_host_checks_total counter
wanac_host_checks_total 4
wanac_host_checks_total{outcome="allowed",app="q\"uo\\te\nd"} 5
wanac_host_checks_total{outcome="denied",app="b"} 1
# HELP wanac_manager_effective_te_seconds Effective Te.
# TYPE wanac_manager_effective_te_seconds gauge
wanac_manager_effective_te_seconds 30
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{lane="high",le="2.5"} 1
lat_seconds_bucket{lane="high",le="10"} 2
lat_seconds_bucket{lane="high",le="+Inf"} 3
lat_seconds_sum{lane="high"} 14.5
lat_seconds_count{lane="high"} 3
lat_seconds_bucket{lane="bulk",le="2.5"} 0
lat_seconds_bucket{lane="bulk",le="10"} 1
lat_seconds_bucket{lane="bulk",le="+Inf"} 1
lat_seconds_sum{lane="bulk"} 4
lat_seconds_count{lane="bulk"} 1
`

const rollupNodeB = `# TYPE wanac_host_checks_total counter
wanac_host_checks_total{outcome="allowed",app="q\"uo\\te\nd"} 2
wanac_host_checks_total{outcome="allowed",app="a"} 3
wanac_host_checks_total 1
# TYPE wanac_manager_effective_te_seconds gauge
wanac_manager_effective_te_seconds 120
# TYPE lat_seconds histogram
lat_seconds_bucket{lane="bulk",le="2.5"} 2
lat_seconds_bucket{lane="bulk",le="10"} 2
lat_seconds_bucket{lane="bulk",le="+Inf"} 3
lat_seconds_sum{lane="bulk"} 31
lat_seconds_count{lane="bulk"} 3
`

// TestRollupText pins the re-exported rollup byte for byte: families by
// name, series by name then label set (labels compared by name), bucket
// bounds in numeric order, sums folded and the colliding family left to
// the monitor's own registry.
func TestRollupText(t *testing.T) {
	m := New(Config{Targets: []Target{
		textTarget(t, "a", rollupNodeA),
		textTarget(t, "b", rollupNodeB),
	}})
	scrape(t, m)

	var own, all bytes.Buffer
	if err := m.reg.WritePrometheus(&own); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMetrics(&all); err != nil {
		t.Fatal(err)
	}
	rollup, ok := strings.CutPrefix(all.String(), own.String())
	if !ok {
		t.Fatalf("exposition does not start with the monitor's own families:\n%s", all.String())
	}
	const want = `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{lane="bulk",le="2.5"} 2
lat_seconds_bucket{lane="bulk",le="10"} 3
lat_seconds_bucket{lane="bulk",le="+Inf"} 4
lat_seconds_bucket{lane="high",le="2.5"} 1
lat_seconds_bucket{lane="high",le="10"} 2
lat_seconds_bucket{lane="high",le="+Inf"} 3
lat_seconds_count{lane="bulk"} 4
lat_seconds_count{lane="high"} 3
lat_seconds_sum{lane="bulk"} 35
lat_seconds_sum{lane="high"} 14.5
# HELP wanac_host_checks_total Checks.
# TYPE wanac_host_checks_total counter
wanac_host_checks_total 5
wanac_host_checks_total{outcome="allowed",app="a"} 3
wanac_host_checks_total{outcome="denied",app="b"} 1
wanac_host_checks_total{outcome="allowed",app="q\"uo\\te\nd"} 7
# HELP wanac_manager_effective_te_seconds Effective Te.
# TYPE wanac_manager_effective_te_seconds gauge
wanac_manager_effective_te_seconds 120
`
	if rollup != want {
		t.Errorf("rollup text:\n%s\nwant:\n%s", rollup, want)
	}
}

// TestNonCumulativeHistogramUnreadable: a bucket series that falls as le
// rises is not a histogram exposition, so the latency indicator reads the
// empty snapshot, as it does for a family it cannot read at all, rather
// than differencing the fall into a bucket of 2^64-3 observations.
func TestNonCumulativeHistogramUnreadable(t *testing.T) {
	m := New(Config{Targets: []Target{textTarget(t, "h0", `# TYPE wanac_host_check_latency_seconds histogram
wanac_host_check_latency_seconds_bucket{le="0.1"} 5
wanac_host_check_latency_seconds_bucket{le="1"} 2
wanac_host_check_latency_seconds_bucket{le="+Inf"} 5
wanac_host_check_latency_seconds_sum 1.5
wanac_host_check_latency_seconds_count 5
`)}})
	scrape(t, m)
	for _, st := range m.engine.Status() {
		if st.Name == "check-latency" && (st.Good != 0 || st.Total != 0) {
			t.Fatalf("check-latency read good=%g total=%g from a non-cumulative histogram, want the empty snapshot", st.Good, st.Total)
		}
	}
}
