package main

// Fleet-facing surface of a live node: the /health readiness probe, the
// scrape path under concurrency, and the acmon aggregator driven end to
// end against real nodes (scrape → merge → re-export → health verdict).
// scripts/ci.sh runs these as its fleet gate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/fleet"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// getJSON fetches a URL and decodes the body, returning the status code.
func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// waitReady polls a node's /health until it answers 200 (transports
// need a moment to connect after boot).
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var body struct {
			Ready  bool              `json:"ready"`
			Detail map[string]string `json:"detail"`
		}
		code := getJSON(t, "http://"+addr+"/health", &body)
		if code == http.StatusOK && body.Ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready: %d %v", addr, code, body.Detail)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	c := startCluster(t, nil)
	for _, addr := range c.debug {
		waitReady(t, addr)
	}

	// A node whose peers are all unreachable must report not-ready with
	// the transport named, even though its own process is fine.
	dead1, dead2 := freeAddr(t), freeAddr(t)
	rt, err := startNode(nodeConfig{
		id: "h9", listen: "127.0.0.1:0", role: "host", app: "stocks",
		peers: fmt.Sprintf("m0=%s,m1=%s", dead1, dead2),
		c:     2, r: 3, te: time.Minute, timeout: time.Second,
		trans: "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// The transport dials lazily; one failing check forces it to contact
	// its (dead) managers, after which readiness must go red. The handler
	// is probed directly, so h9 needs no debug server.
	cctx, ccancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	rt.host.CheckContext(cctx, "stocks", "alice", wire.RightUse)
	ccancel()
	h := &healthHandler{rt: rt}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
		if rec.Code == http.StatusServiceUnavailable {
			if !strings.Contains(rec.Body.String(), "transport") {
				t.Fatalf("isolated host /health does not name the transport: %s", rec.Body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated host /health = %d, want 503: %s", rec.Code, rec.Body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentScrapeRace hammers /metrics and /health while the node
// serves live checks: every exposition must parse strictly, under the
// race detector (ci runs this suite with -race -count=2).
func TestConcurrentScrapeRace(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	c := startCluster(t, nil)
	for _, addr := range c.debug {
		waitReady(t, addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup

	// Load: checks through the host, alternating users so the cache and
	// the query path both stay busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		host := c.host().host
		for i := 0; ctx.Err() == nil; i++ {
			user := wire.UserID("alice")
			if i%3 == 0 {
				user = "mallory" // denied: exercises the deny counters too
			}
			cctx, ccancel := context.WithTimeout(ctx, time.Second)
			host.CheckContext(cctx, "stocks", user, wire.RightUse)
			ccancel()
		}
	}()

	// Scrapers: every node's /metrics and /health, concurrently.
	for _, addr := range c.debug {
		for _, path := range []string{"/metrics", "/health"} {
			wg.Add(1)
			go func(url, path string) {
				defer wg.Done()
				for ctx.Err() == nil {
					resp, err := http.Get(url)
					if err != nil {
						if ctx.Err() == nil {
							t.Errorf("get %s: %v", url, err)
						}
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("read %s: %v", url, err)
						return
					}
					if path == "/metrics" {
						if _, err := telemetry.ParseText(bytes.NewReader(body)); err != nil {
							t.Errorf("exposition from %s malformed under load: %v", url, err)
							return
						}
					}
				}
			}("http://"+addr+path, path)
		}
	}
	wg.Wait()
}

// TestAcmonEndToEnd is the aggregator smoke from the issue: live nodes,
// a revocation observed end to end, then acmon's monitor scrapes the
// fleet and must (a) re-export an exposition that parses strictly, (b)
// report every target up with a green /health, and (c) roll up
// wanac_manager_revocation_propagation_seconds to exactly the sum of
// the per-node expositions.
func TestAcmonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	c := startCluster(t, nil)
	for _, addr := range c.debug {
		waitReady(t, addr)
	}

	// One allowed check caches alice's grant on h0; revoking it forwards
	// a notice to h0, whose ack feeds the propagation histogram.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if d, err := c.host().host.CheckContext(ctx, "stocks", "alice", wire.RightUse); err != nil || !d.Allowed {
		t.Fatalf("check = %+v, %v", d, err)
	}
	if _, err := c.runtimes[0].mgr.SubmitWait(ctx, wire.AdminOp{
		Op: wire.OpRevoke, App: "stocks", User: "alice", Right: wire.RightUse, Issuer: "root",
	}); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	propagated := func(addr string) uint64 {
		m := scrapeParsed(t, addr)
		snap, err := m.HistogramFrom("wanac_manager_revocation_propagation_seconds")
		if err != nil {
			return 0
		}
		return snap.Count
	}
	// With C = 2 both managers granted to h0, so both forward a notice and
	// each observes its own propagation when h0's ack reaches it — m1 a
	// little after m0, which applied the revocation first. Quiescence is
	// both having exported; waiting for m0 alone lets m1's observation land
	// between the monitor's scrape and the re-scrape below.
	deadline := time.Now().Add(10 * time.Second)
	for i, addr := range c.debug[:2] {
		for propagated(addr) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("m%d never observed the revocation propagation", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The monitor scrapes all three nodes once.
	mon := fleet.New(fleet.Config{
		Targets: []fleet.Target{
			{Name: "m0", Addr: c.debug[0]},
			{Name: "m1", Addr: c.debug[1]},
			{Name: "h0", Addr: c.debug[2]},
		},
		Te: time.Minute,
	})
	if err := mon.ScrapeOnce(ctx); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	var health struct {
		Healthy bool              `json:"healthy"`
		Detail  map[string]string `json:"detail"`
	}
	if code := getJSON(t, srv.URL+"/health", &health); code != http.StatusOK || !health.Healthy {
		t.Fatalf("fleet /health = %d %+v, want green", code, health)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rollup, err := telemetry.ParseMetrics(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("acmon re-export malformed: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "wanac_fleet_targets_up 3") {
		t.Fatalf("re-export missing wanac_fleet_targets_up 3:\n%s", body)
	}
	for _, fam := range []string{
		"wanac_slo_sli", "wanac_host_checks_total",
		"wanac_manager_revocation_propagation_seconds",
	} {
		if _, ok := rollup.Types[fam]; !ok {
			t.Errorf("re-export missing family %s", fam)
		}
	}

	// Rollup exactness: the deployment is quiescent now, so re-scraping
	// the managers and summing must reproduce the monitor's histogram
	// bucket for bucket.
	got, err := rollup.HistogramFrom("wanac_manager_revocation_propagation_seconds")
	if err != nil {
		t.Fatal(err)
	}
	var want telemetry.HistogramSnapshot
	for i, addr := range c.debug[:2] {
		snap, err := scrapeParsed(t, addr).HistogramFrom("wanac_manager_revocation_propagation_seconds")
		if err != nil {
			t.Fatalf("manager %d: %v", i, err)
		}
		if i == 0 {
			want = snap
			continue
		}
		if want, err = telemetry.MergeHistograms(want, snap); err != nil {
			t.Fatal(err)
		}
	}
	if got.Count == 0 {
		t.Fatal("fleet rollup has no propagation observations")
	}
	if got.Count != want.Count || got.Sum != want.Sum || len(got.Counts) != len(want.Counts) {
		t.Fatalf("rollup = %d obs (sum %g, %d buckets), per-node sum = %d obs (sum %g, %d buckets)",
			got.Count, got.Sum, len(got.Counts), want.Count, want.Sum, len(want.Counts))
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: rollup %d, per-node sum %d (exactness violated)",
				i, got.Counts[i], want.Counts[i])
		}
	}
}

// scrapeParsed fetches and strictly parses one node's exposition.
func scrapeParsed(t *testing.T, addr string) *telemetry.Metrics {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
	defer resp.Body.Close()
	m, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("exposition from %s malformed: %v", addr, err)
	}
	return m
}
