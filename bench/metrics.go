package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json at the root
// of the repo lists exactly these rows (selfcheck_test.go holds the two
// together); `-print-contract` prints the file from this table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them; README.md says what each
// means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"checks_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run and the
// isolated-call pass. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	// seam-traced self times (median per span)
	{Name: "core.host.check_call_us", Unit: "us", Better: "lower"},
	{Name: "core.host.handle_response_us", Unit: "us", Better: "lower"},
	{Name: "core.host.quorum_wait_us", Unit: "us", Better: "lower"},
	{Name: "core.host.handle_notice_us", Unit: "us", Better: "lower"},
	{Name: "core.manager.handle_query_us", Unit: "us", Better: "lower"},
	{Name: "core.manager.submit_us", Unit: "us", Better: "lower"},
	{Name: "core.manager.handle_update_us", Unit: "us", Better: "lower"},
	{Name: "core.manager.handle_ack_us", Unit: "us", Better: "lower"},
	{Name: "netcore.send_us", Unit: "us", Better: "lower"},
	{Name: "transit.h2m_us", Unit: "us", Better: "lower"},
	{Name: "transit.m2h_us", Unit: "us", Better: "lower"},
	{Name: "transit.m2m_us", Unit: "us", Better: "lower"},
	// counts at the same seams, from the nodes' public Stats()
	{Name: "netcore.msgs_per_flush", Unit: "count", Better: "higher"},
	{Name: "netcore.flushes_per_check", Unit: "count", Better: "lower"},
	{Name: "netcore.drops", Unit: "count", Better: "lower"},
	{Name: "netcore.lane_drops_high", Unit: "count", Better: "lower"},
	{Name: "netcore.lane_high_share", Unit: "ratio", Better: "lower"},
	{Name: "core.host.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.host.rounds_per_check", Unit: "count", Better: "lower"},
	{Name: "core.host.query_timeouts", Unit: "count", Better: "lower"},
	{Name: "core.env.timers_per_check", Unit: "count", Better: "lower"},
	{Name: "core.manager.queries_served", Unit: "count", Better: "lower"},
	{Name: "core.manager.queries_shed", Unit: "count", Better: "lower"},
	{Name: "core.manager.updates_stale", Unit: "count", Better: "lower"},
	{Name: "acl.cache.len", Unit: "count", Better: "lower"},
	// per-operation message and byte costs
	{Name: "msgs_per_check", Unit: "count", Better: "lower"},
	{Name: "msgs_per_revoke", Unit: "count", Better: "lower"},
	{Name: "wire_bytes_per_check", Unit: "B", Better: "lower"},
	// simulator
	{Name: "sim_s_per_wall_s", Unit: "1/s", Better: "higher"},
	{Name: "scenario.run_s.steady-baseline", Unit: "s", Better: "lower"},
	{Name: "scenario.run_s.zipf-flood", Unit: "s", Better: "lower"},
	{Name: "scenario.run_s.overload-100x", Unit: "s", Better: "lower"},
	{Name: "scenario.run_s.revoke-under-partition", Unit: "s", Better: "lower"},
	{Name: "simnet.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "simnet.msgs_dropped", Unit: "count", Better: "lower"},
	{Name: "scenario.decisions", Unit: "count", Better: "higher"},
	{Name: "harness.violations", Unit: "count", Better: "lower"},
	// wall-clock numbers of the untraced reference windows: a user sees
	// them, but between runs on a shared box they move by more than any
	// bound the contract allows, so nothing is gated on them
	{Name: "checks_per_s_1caller", Unit: "1/s", Better: "higher"},
	{Name: "revoke_quorum_p50_us", Unit: "us", Better: "lower"},
	{Name: "revoke_flush_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.checks_per_s_one_host", Unit: "1/s", Better: "higher"},
	{Name: "bench.check_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.check_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.revoke_quorum_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.revoke_flush_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.revoke_unflushed", Unit: "count", Better: "lower"},
	{Name: "bench.slice_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.path_accounted_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.speed_index", Unit: "ratio", Better: "higher"},
	// isolated-call pass
	{Name: "acl.cache.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "acl.cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "acl.cache.evict_ns", Unit: "ns", Better: "lower"},
	{Name: "acl.store.has_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.size_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.append_query_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.append_response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.append_update_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_query_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.append_batch16_ns", Unit: "ns", Better: "lower"},
	{Name: "netcore.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "netcore.frame_read_ns", Unit: "ns", Better: "lower"},
	{Name: "netcore.split_datagram_ns", Unit: "ns", Better: "lower"},
	{Name: "netcore.peer_pump_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tcpnet.echo_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "tcpnet.oneway_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "udpnet.echo_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "udpnet.oneway_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.host.cached_check_bare_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host.cached_check_telemetry_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host.cached_check_flight_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host.cached_check_audit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host.cached_check_all_ns", Unit: "ns", Better: "lower"},
	{Name: "core.host.cold_check_stub_ns", Unit: "ns", Better: "lower"},
	{Name: "core.manager.handle_query_stub_ns", Unit: "ns", Better: "lower"},
	{Name: "core.manager.submit_stub_ns", Unit: "ns", Better: "lower"},
	{Name: "audit.record_ns", Unit: "ns", Better: "lower"},
	{Name: "flight.record_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "ratelimit.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "auth.sign_ns", Unit: "ns", Better: "lower"},
	{Name: "auth.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.scheduler_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simnet.send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.montecarlo_trials_per_s", Unit: "1/s", Better: "higher"},
}

// workloadDef is one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"cached-hot", "Every check hits a warm host cache, one caller per host: acl, core.Host and the observers do all the work and no message is sent; where a cheaper hit path or observer spine must show."},
	{"cold-tcp", "Every check finds its entry expired and takes a full round to C=2 of 3 managers over TCP: state machine, wire, netcore queues, tcpnet, Manager.onQuery. Hit ratio is asserted 0."},
	{"churn-udp", "Zipf checks over UDP on both hosts while a paced admin loop revokes, waits for both hosts to flush, and re-grants: the high lane beside the bulk lane, with hits, expiries and denies mixed."},
	{"sim-catalog", "Four catalog scenarios under all five oracles plus revocation cycles on virtual time: simnet scheduler, sim, scenario, harness and core with no socket opened; counts repeat exactly."},
}

var defOf = map[string]metricDef{}

func init() {
	for _, d := range endToEnd {
		defOf[d.Name] = d
	}
	for _, d := range perLayer {
		defOf[d.Name] = d
	}
}

// metric is one measured value. Spread, where there is one, is the
// inter-quartile range of the window's slices as a share of their median.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"slice_iqr_ratio,omitempty"`
}

// metricSet is an ordered set of metrics; it remembers names it was given
// twice or does not know, which the self-check turns into a failure.
type metricSet struct {
	list []metric
	seen map[string]bool
	bad  []string
}

func newMetricSet() *metricSet { return &metricSet{seen: map[string]bool{}} }

func (s *metricSet) add(name string, v float64) { s.addSpread(name, v, 0) }

func (s *metricSet) addSpread(name string, v, spread float64) {
	def, known := defOf[name]
	switch {
	case !known:
		s.bad = append(s.bad, "unknown metric "+name)
	case s.seen[name]:
		s.bad = append(s.bad, "metric "+name+" reported twice")
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.bad = append(s.bad, fmt.Sprintf("metric %s is %v", name, v))
	}
	s.seen[name] = true
	s.list = append(s.list, metric{Name: name, Value: v, Unit: def.Unit, Spread: spread})
}

func (s *metricSet) merge(o *metricSet) {
	for _, m := range o.list {
		s.addSpread(m.Name, m.Value, m.Spread)
	}
}

func (s *metricSet) get(name string) metric {
	for _, m := range s.list {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// fill returns the set in catalogue order, with a zero for every row not
// reported (a layer the workload bypasses).
func (s *metricSet) fill(defs []metricDef) *metricSet {
	out := newMetricSet()
	out.bad = s.bad
	for _, d := range defs {
		m := s.get(d.Name)
		out.addSpread(d.Name, m.Value, m.Spread)
	}
	return out
}

// contractLine is the last line of standard output of a single-workload run.
func contractLine(r *result) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics.list))
	for _, m := range r.metrics.list {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), attempted, r.failed, ms})
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(line)
}

// contract is the content of BENCHMARK.json.
func contract(runSeconds int) ([]byte, error) {
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, perLayer}, "", "  ")
}
