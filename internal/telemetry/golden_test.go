package telemetry

import (
	"bytes"
	"testing"
)

// goldenRegistry holds one family of every shape the exposition renders:
// a plain counter, a two-label counter family, a func-backed gauge, a
// two-label gauge set, a two-child histogram family, a family with empty
// help, a family with no children, and help and label values that need
// escaping. Children are created out of label order so the golden pins
// the sort.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("g_plain_total", "A plain counter.").Add(3)

	req := reg.CounterVec("g_requests_total", "Requests by method and code.", "method", "code")
	req.With("post", "500").Inc()
	req.With("get", "404")
	req.With("get", "200").Add(5)

	reg.GaugeFunc("g_temperature_celsius", "A func-backed gauge.", func() float64 { return 21.5 })

	reg.GaugeSet("g_peer_state", "Peer state, one series per peer.", []string{"peer", "state"},
		func(emit func([]string, float64)) {
			emit([]string{"m1", "up"}, 1)
			emit([]string{"m0", "backoff"}, 0)
		})

	lat := reg.HistogramVec("g_latency_seconds", "Latency by lane.", []float64{0.1, 1}, "lane")
	lat.With("high").Observe(0.05)
	lat.With("high").Observe(2)
	lat.With("bulk").Observe(0.5)

	reg.Gauge("g_nohelp", "").Set(7)
	reg.CounterVec("g_empty_total", "Registered, never resolved.", "kind")

	reg.CounterVec("g_escaped_total", "Help with a back\\slash\nand a second line.", "v").
		With("q\"uo\\te\nd").Add(2)
	return reg
}

const goldenExposition = `# HELP g_empty_total Registered, never resolved.
# TYPE g_empty_total counter
# HELP g_escaped_total Help with a back\\slash\nand a second line.
# TYPE g_escaped_total counter
g_escaped_total{v="q\"uo\\te\nd"} 2
# HELP g_latency_seconds Latency by lane.
# TYPE g_latency_seconds histogram
g_latency_seconds_bucket{lane="bulk",le="0.1"} 0
g_latency_seconds_bucket{lane="bulk",le="1"} 1
g_latency_seconds_bucket{lane="bulk",le="+Inf"} 1
g_latency_seconds_sum{lane="bulk"} 0.5
g_latency_seconds_count{lane="bulk"} 1
g_latency_seconds_bucket{lane="high",le="0.1"} 1
g_latency_seconds_bucket{lane="high",le="1"} 1
g_latency_seconds_bucket{lane="high",le="+Inf"} 2
g_latency_seconds_sum{lane="high"} 2.05
g_latency_seconds_count{lane="high"} 2
` + "# HELP g_nohelp \n" + // empty help keeps its separating space
	`# TYPE g_nohelp gauge
g_nohelp 7
# HELP g_peer_state Peer state, one series per peer.
# TYPE g_peer_state gauge
g_peer_state{peer="m0",state="backoff"} 0
g_peer_state{peer="m1",state="up"} 1
# HELP g_plain_total A plain counter.
# TYPE g_plain_total counter
g_plain_total 3
# HELP g_requests_total Requests by method and code.
# TYPE g_requests_total counter
g_requests_total{method="get",code="200"} 5
g_requests_total{method="get",code="404"} 0
g_requests_total{method="post",code="500"} 1
# HELP g_temperature_celsius A func-backed gauge.
# TYPE g_temperature_celsius gauge
g_temperature_celsius 21.5
`

// TestWritePrometheusGolden pins a registry's exposition byte for byte:
// families by name, children by label values, histograms as cumulative
// buckets then sum then count per child, HELP always written (empty help
// too), escaped help and label values.
func TestWritePrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenExposition {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, goldenExposition)
	}
}
