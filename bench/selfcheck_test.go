package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wanac/internal/wire"
)

// The self-check runs every workload at half-second windows with a
// three-iteration isolated pass and asserts what the benchmark promises
// about itself: every catalogue metric printed exactly once, finite, with
// its unit; no failed operation; the bypass assertions; spans nested and the
// blocking path accounted for; every node closed with no goroutine left.
// There are no speed thresholds.

func testOptions(trace int, iso *isoCache, t *testing.T) options {
	return options{seed: 7, seconds: 1, trace: trace, isoScale: 1e-9, spanCap: 1 << 16, traceOut: t.TempDir(), iso: iso}
}

func TestContractMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, want map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	seconds, ok := file["run_seconds"].(float64)
	if !ok || seconds < 1 || seconds > 60 || seconds != math.Trunc(seconds) {
		t.Fatalf("run_seconds = %v", file["run_seconds"])
	}
	gen, err := contract(int(seconds))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue in metrics.go; regenerate it with -print-contract -seconds %d", int(seconds))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestWorkloadsSelfCheck(t *testing.T) {
	before := runtime.NumGoroutine()
	iso := &isoCache{}
	for _, wd := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := runWorkload(wd.Name, testOptions(trace, iso, t))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wd.Name, trace, err)
			}
			checkResult(t, res)
		}
	}
	// Every node was Closed; Close waits for the node's goroutines, so only
	// runtime stragglers (timers being collected) can remain, briefly.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left running (started with %d):\n%s", now, before, buf[:runtime.Stack(buf, true)])
	}
}

func checkResult(t *testing.T, res *result) {
	t.Helper()
	name := res.workload
	if !res.correct() {
		var out bytes.Buffer
		printResult(&out, res)
		t.Fatalf("%s trace=%d is not correct:\n%s", name, res.trace, out.String())
	}
	if res.attempted == 0 || res.failed != 0 {
		t.Errorf("%s: attempted=%d failed=%d", name, res.attempted, res.failed)
	}
	defs := endToEnd
	if res.trace == 1 {
		defs = perLayer
	}
	if len(res.metrics.list) != len(defs) {
		t.Fatalf("%s: %d metrics printed, catalogue has %d", name, len(res.metrics.list), len(defs))
	}
	for i, m := range res.metrics.list {
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", name, i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("%s: %s = %v", name, m.Name, m.Value)
		}
		if res.trace == 0 && m.Value == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
		}
	}

	// The contract's last line parses back to exactly its four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("%s: contract line lacks %q", name, k)
		}
	}
	if len(line) != 4 {
		t.Errorf("%s: contract line has %d keys, want 4", name, len(line))
	}

	if res.trace == 0 {
		return
	}
	get := func(name string) float64 { return res.metrics.get(name).Value }
	// Every row of the isolated pass ran.
	for _, d := range perLayer {
		if (strings.HasSuffix(d.Name, "_ns") || strings.HasSuffix(d.Name, "_per_s")) && get(d.Name) <= 0 {
			t.Errorf("%s: isolated row %s = %v", name, d.Name, get(d.Name))
		}
	}
	if name == "sim-catalog" {
		if get("scenario.decisions") == 0 || get("simnet.msgs_sent") == 0 || get("harness.violations") != 0 {
			t.Errorf("sim-catalog: decisions=%v sent=%v violations=%v",
				get("scenario.decisions"), get("simnet.msgs_sent"), get("harness.violations"))
		}
		return
	}
	// The blocking path of a check or a revocation tiles its root: the self
	// times along it sum to the root within 5 %.
	if acc := get("bench.path_accounted_ratio"); math.Abs(acc-1) > 0.05 {
		t.Errorf("%s: blocking path accounts for %.3f of the root, want 1 +- 0.05", name, acc)
	}
	switch name {
	case "cached-hot":
		if get("core.host.cache_hit_ratio") != 1 || get("msgs_per_check") != 0 {
			t.Errorf("cached-hot: hit ratio %v, msgs per check %v", get("core.host.cache_hit_ratio"), get("msgs_per_check"))
		}
	case "cold-tcp":
		if get("core.host.cache_hit_ratio") != 0 || get("netcore.drops") != 0 {
			t.Errorf("cold-tcp: hit ratio %v, drops %v", get("core.host.cache_hit_ratio"), get("netcore.drops"))
		}
	}
}

// A rate is the mean of the middle half of the slices: stalled slices and
// lucky ones do not move it.
func TestMidmean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 10, 10, 10}, 10},
		{[]float64{0, 9, 11, 1000}, 10},
		{[]float64{5, 1, 9, 7, 3, 1000, 0, 6}, 5.25}, // 0 1 | 3 5 6 7 | 9 1000
		{[]float64{4}, 4},
	} {
		if got := midmean(tc.xs); got != tc.want {
			t.Errorf("midmean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// A notice from an earlier revocation of the same user must not be credited
// to the one in flight.
func TestFlushTrackerIgnoresStragglers(t *testing.T) {
	tr := flushTracker{done: make(chan struct{}, 1)}
	cur := wire.UpdateSeq{Origin: "m1", Counter: 9}
	tr.arm("a3", cur)
	now := time.Now()
	tr.notice(numManagers, wire.RevokeNotice{User: "a3", Seq: wire.UpdateSeq{Origin: "m1", Counter: 4}}, now)
	tr.notice(numManagers+1, wire.RevokeNotice{User: "a3", Seq: wire.UpdateSeq{Origin: "m0", Counter: 9}}, now)
	tr.notice(numManagers, wire.RevokeNotice{User: "a4", Seq: cur}, now)
	if _, ok := tr.wait(20 * time.Millisecond); ok {
		t.Fatal("stragglers were credited as a flush")
	}
	tr.arm("a3", cur)
	tr.notice(numManagers, wire.RevokeNotice{User: "a3", Seq: cur}, now)
	tr.notice(numManagers, wire.RevokeNotice{User: "a3", Seq: cur}, now.Add(time.Hour)) // a second manager's copy
	tr.notice(numManagers+1, wire.RevokeNotice{User: "a3", Seq: cur}, now.Add(time.Second))
	last, ok := tr.wait(time.Second)
	if !ok || !last.Equal(now.Add(time.Second)) {
		t.Fatalf("flush at %v ok=%v, want the later host's first notice", last, ok)
	}
}

// Self time is the span minus what its children cover, and the backwards
// walk follows handler <- transit <- send <- caller to the root's start.
func TestAnalyseSyntheticFlow(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, kind: spCheck, flow: 1},                                          // 1 root
		{start: 0, end: 10, parent: 1, flow: 1, kind: spCheckCall, node: 3},                   // 2
		{start: 4, end: 6, parent: 2, flow: 1, kind: spSend, node: 3, peer: 0},                // 3
		{start: 6, end: 40, parent: 1, flow: 1, kind: spTransitH2M, node: 0, peer: 3},         // 4
		{start: 40, end: 52, parent: 1, flow: 1, kind: spHandleQuery, node: 0, peer: 3},       // 5
		{start: 48, end: 50, parent: 5, flow: 1, kind: spSend, node: 0, peer: 3},              // 6
		{start: 50, end: 90, parent: 1, flow: 1, kind: spTransitM2H, node: 3, peer: 0},        // 7
		{start: 90, end: 100, parent: 1, flow: 1, kind: spHandleResponse, node: 3, peer: 0},   // 8
		{start: 90, end: 90, parent: 1, flow: 1, kind: spQuorumWait, node: 3},                 // 9
		{start: 120, end: 130, parent: 0, flow: 1, kind: spHandleRevokeAck, node: 0, peer: 3}, // straggler
	}
	st := analyse(spans)
	if st.escaped != 0 || st.flows != 1 {
		t.Fatalf("escaped=%d flows=%d", st.escaped, st.flows)
	}
	if got := st.selfUS[spCheckCall]; len(got) != 1 || got[0] != 0.008 {
		t.Errorf("check_call self = %v us, want 0.008", got)
	}
	if got := st.selfUS[spHandleQuery]; len(got) != 1 || got[0] != 0.010 {
		t.Errorf("handle_query self = %v us, want 0.010", got)
	}
	if len(st.accRatio) != 1 || st.accRatio[0] != 1 {
		t.Errorf("accounted = %v, want [1]", st.accRatio)
	}
	// Break the chain: without the transit back, the walk stops at the
	// response handler.
	broken := append([]span(nil), spans...)
	broken[6].end = 0
	if st := analyse(broken); len(st.accRatio) != 1 || st.accRatio[0] != 0.1 {
		t.Errorf("accounted with a broken chain = %v, want [0.1]", st.accRatio)
	}
}

func TestCompareVerdicts(t *testing.T) {
	snap := func(rate, spread float64) *snapshot {
		s := &snapshot{}
		r := &result{workload: "cold-tcp", metrics: newMetricSet()}
		r.metrics.addSpread("checks_per_s", rate, spread)
		r.metrics.add("allocs_per_op", 30)
		s.add(r)
		return s
	}
	for _, tc := range []struct {
		name       string
		b          *snapshot
		code       int
		wantInRate string
	}{
		{"same", snap(1000, 0.01), 0, "ok"},
		{"slower within bound", snap(950, 0.01), 0, "ok"},
		{"slower beyond bound", snap(500, 0.01), 1, "regressed"},
		{"slower but noisy", snap(500, 0.9), 0, "unresolved"},
		{"faster", snap(5000, 0.01), 0, "ok"},
	} {
		var out bytes.Buffer
		code := compareSets([]*snapshot{snap(1000, 0.01)}, []*snapshot{tc.b}, &out)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "checks_per_s ") && !strings.HasSuffix(line, tc.wantInRate) {
				t.Errorf("%s: %q, want verdict %s", tc.name, line, tc.wantInRate)
			}
		}
	}
}

func TestSnapshotIsNeverOverwritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "12.json")
	s := &snapshot{}
	if err := s.write(path); err != nil {
		t.Fatal(err)
	}
	if err := s.write(path); err == nil {
		t.Fatal("second write to the same snapshot succeeded")
	}
}
