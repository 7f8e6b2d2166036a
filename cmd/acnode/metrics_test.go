package main

// Live smoke test for the telemetry surface: a two-manager/one-host
// deployment over real TCP sockets, one access check driven end to end,
// then the /metrics expositions scraped and the three nodes' journals
// joined to reconstruct the check round by trace ID. scripts/ci.sh runs
// this as its metrics gate.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

func scrape(t *testing.T, addr string) (string, map[string]string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition from %s malformed: %v\n%s", addr, err, body)
	}
	return string(body), fams
}

func TestMetricsEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	c := startCluster(t, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	host := c.host().host
	d, err := host.CheckContext(ctx, "stocks", "alice", wire.RightUse)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !d.Allowed || d.Confirmations < 2 {
		t.Fatalf("decision = %+v, want allowed with quorum 2", d)
	}

	// Host exposition: check-latency histogram by outcome, cache gauges,
	// transport counters.
	hostOut, hostFams := scrape(t, c.debugAddr("h0"))
	for fam, typ := range map[string]string{
		"wanac_host_checks_total":          "counter",
		"wanac_host_check_latency_seconds": "histogram",
		"wanac_host_cache_entries":         "gauge",
		"wanac_transport_sends_total":      "counter",
		"wanac_trace_events_total":         "counter",
	} {
		if hostFams[fam] != typ {
			t.Errorf("host exposition: family %s = %q, want %s", fam, hostFams[fam], typ)
		}
	}
	// Build identity: every binary's registry carries build info and the
	// process start time, so a scrape identifies what is running and for
	// how long.
	if hostFams["wanac_build_info"] != "gauge" || hostFams["wanac_process_start_time_seconds"] != "gauge" {
		t.Errorf("host exposition missing build info families: %v", hostFams)
	}
	if !strings.Contains(hostOut, `go_version="go`) {
		t.Errorf("wanac_build_info missing go_version label:\n%s", hostOut)
	}
	if !strings.Contains(hostOut, "wanac_process_start_time_seconds 1") {
		// Any plausible epoch value starts with 1 until 2033; the exact
		// timestamp is the process's business.
		t.Errorf("host exposition missing process start time:\n%s", hostOut)
	}
	if !strings.Contains(hostOut, `wanac_host_checks_total{outcome="allowed"} 1`) {
		t.Errorf("host exposition missing allowed check:\n%s", hostOut)
	}
	if !strings.Contains(hostOut, `wanac_host_check_latency_seconds_count{outcome="allowed"} 1`) {
		t.Errorf("host exposition missing latency observation")
	}

	// Manager exposition: query counters, quorum/freeze gauges.
	mgrOut, mgrFams := scrape(t, c.debugAddr("m0"))
	for fam, typ := range map[string]string{
		"wanac_manager_queries_total":                 "counter",
		"wanac_manager_update_quorum_latency_seconds": "histogram",
		"wanac_manager_frozen_apps":                   "gauge",
		"wanac_manager_syncing_apps":                  "gauge",
	} {
		if mgrFams[fam] != typ {
			t.Errorf("manager exposition: family %s = %q, want %s", fam, mgrFams[fam], typ)
		}
	}
	if !strings.Contains(mgrOut, `wanac_manager_queries_total{result="served"} 1`) {
		t.Errorf("manager exposition missing served query:\n%s", mgrOut)
	}

	// /debug/vars (the runtime's expvar) must be served alongside /metrics.
	if resp, err := http.Get("http://" + c.debugAddr("h0") + "/debug/vars"); err != nil {
		t.Errorf("/debug/vars: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/debug/vars status = %d", resp.StatusCode)
		}
	}

	// Reconstruct the check from the three nodes' journals: the host's
	// access-allowed record names a trace, and that trace must also appear
	// in the host's query-sent record and in a query-served record on every
	// manager that served the round.
	var trace uint64
	hd := pullJournal(t, c.debugAddr("h0"))
	for _, r := range hd.Records {
		if r.Type == "access-allowed" {
			trace = r.Trace
		}
	}
	if trace == 0 {
		t.Fatalf("no access-allowed record on h0: %+v", hd.Records)
	}
	has := func(d *flight.Dump, typ string) bool {
		for _, r := range d.Records {
			if r.Type == typ && r.Trace == trace {
				return true
			}
		}
		return false
	}
	if !has(hd, "query-sent") {
		t.Errorf("h0 journal has no query-sent with trace %016x: %+v", trace, hd.Records)
	}
	for _, id := range []string{"m0", "m1"} {
		if d := pullJournal(t, c.debugAddr(id)); !has(d, "query-served") {
			t.Errorf("%s journal has no query-served with trace %016x: %+v", id, trace, d.Records)
		}
	}
}
