package main

// Live test for the always-on journal surface: a real deployment over TCP,
// one check driven end to end, then /debug/journal pulled from both sides and
// parsed the way acaudit would.

import (
	"context"
	"net/http"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/wire"
)

func pullJournal(t *testing.T, addr string) *flight.Dump {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/journal")
	if err != nil {
		t.Fatalf("GET /debug/journal on %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/journal status = %d", resp.StatusCode)
	}
	d, err := flight.ReadDump(resp.Body)
	if err != nil {
		t.Fatalf("journal dump from %s does not parse: %v", addr, err)
	}
	return d
}

func TestDebugFlightEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	c := startCluster(t, func(cfg *nodeConfig) { cfg.journalRing = 512 })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	d, err := c.host().host.CheckContext(ctx, "stocks", "alice", wire.RightUse)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !d.Allowed {
		t.Fatalf("decision = %+v, want allowed", d)
	}

	// The host journal must hold the check's protocol story and its
	// decision under the node's own name, including transport peer-up
	// records from connecting out.
	hd := pullJournal(t, c.debugAddr("h0"))
	if len(hd.Header.Nodes) != 1 || hd.Header.Nodes[0] != "h0" {
		t.Fatalf("h0 dump nodes = %v, want [h0]", hd.Header.Nodes)
	}
	counts := map[string]int{}
	kinds := map[flight.Kind]int{}
	var trace uint64
	for _, r := range hd.Records {
		if r.Node != "h0" {
			t.Fatalf("h0 dump contains record for node %q", r.Node)
		}
		counts[r.Type]++
		kinds[r.Kind]++
		if r.Type == "query-sent" && r.Trace != 0 {
			trace = r.Trace
		}
	}
	if counts["query-sent"] < 1 || counts["access-allowed"] < 1 {
		t.Errorf("h0 ring missing the check: %v", counts)
	}
	if kinds[flight.KindTransport] == 0 {
		t.Errorf("h0 ring has no transport state records: %v", kinds)
	}
	if trace == 0 {
		t.Error("h0 query-sent records carry no trace ID")
	}
	decided := false
	for _, r := range hd.Records {
		decided = decided || r.Kind == flight.KindDecision && r.Trace == trace && r.Reason == flight.ReasonQuorumAllow
	}
	if !decided {
		t.Errorf("h0 journal has no quorum-allow decision with trace %016x", trace)
	}

	// The manager that served the round must hold a query-served record
	// with the same trace ID — the anchor acaudit -timeline aligns clocks on.
	md := pullJournal(t, c.debugAddr("m0"))
	served := false
	for _, r := range md.Records {
		if r.Type == "query-served" && r.Trace == trace {
			served = true
		}
	}
	if !served {
		t.Errorf("m0 ring has no query-served record with trace %016x", trace)
	}

	// A second pull must see at least as many records (ring is append-only
	// until overwrite) and still parse — the endpoint is re-entrant.
	hd2 := pullJournal(t, c.debugAddr("h0"))
	if len(hd2.Records) < len(hd.Records) {
		t.Errorf("second pull shrank: %d -> %d records", len(hd.Records), len(hd2.Records))
	}

	// The journal is the one dump a node serves.
	for _, gone := range []string{"/debug/flight", "/debug/audit"} {
		resp, err := http.Get("http://" + c.debugAddr("h0") + gone)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", gone, resp.StatusCode)
		}
	}
}
