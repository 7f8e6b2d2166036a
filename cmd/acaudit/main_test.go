package main

// Golden tests: a deterministic simulated deployment produces the three
// canonical decisions the ISSUE's acceptance demands — a cache-hit allow,
// a quorum deny, and a partition-era default allow — its audit and flight
// artifacts are written to disk, and acaudit must reconstruct each
// decision's evidence chain from the files alone.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/clitest"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/wire"
)

// buildArtifacts runs the deterministic scenario and dumps every node's
// audit ring and the merged flight dump to dir, returning the file paths in
// sniffable (mixed) order.
func buildArtifacts(t *testing.T, dir string) []string {
	t.Helper()
	w, err := sim.Build(sim.Config{
		App:      "app",
		Managers: 2,
		Hosts:    1,
		Policy: core.Policy{
			CheckQuorum: 2, QueryTimeout: time.Second,
			MaxAttempts: 3, DefaultAllow: true, Te: 30 * time.Second,
		},
		Te: 30 * time.Second, UpdateRetry: time.Second,
		Users:      []wire.UserID{"alice"},
		FlightRing: 256,
		AuditRing:  256,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Quorum allow, then a cache hit on the same grant.
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, 5*time.Second); !ok || !d.Allowed || d.CacheHit {
		t.Fatalf("quorum check = %+v, %v", d, ok)
	}
	w.RunFor(time.Second)
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, 5*time.Second); !ok || !d.CacheHit {
		t.Fatalf("cache-hit check = %+v, %v", d, ok)
	}
	// Quorum deny: bob holds no grant anywhere.
	if d, ok := w.CheckSync(0, "bob", wire.RightUse, 5*time.Second); !ok || d.Allowed {
		t.Fatalf("deny check = %+v, %v", d, ok)
	}
	// Partition-era default allow: cut the host off from both managers and
	// check an uncached user — R rounds time out, then the Figure 4 rule.
	w.PartitionHostFromManagers(0, 0, 1)
	if d, ok := w.CheckSync(0, "carol", wire.RightUse, 10*time.Second); !ok || !d.Allowed || !d.DefaultAllowed {
		t.Fatalf("default check = %+v, %v", d, ok)
	}

	var paths []string
	writeTo := func(name string, emit func(w io.Writer) error) {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(f); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, rec := range w.AuditRings() {
		writeTo(rec.Node()+"-audit.jsonl", rec.WriteDump)
	}
	writeTo("flight.jsonl", w.FlightDump().Write)
	return paths
}

// TestExplainGolden pins the full causal explanations for the three
// acceptance decisions, reconstructed purely from dump files.
func TestExplainGolden(t *testing.T) {
	paths := buildArtifacts(t, t.TempDir())
	for _, c := range []struct {
		golden string
		filter audit.Filter
	}{
		{"explain_cache_hit.golden", audit.Filter{User: "alice", Last: 1}},
		{"explain_quorum_deny.golden", audit.Filter{User: "bob"}},
		{"explain_default_allow.golden", audit.Filter{User: "carol"}},
	} {
		var b strings.Builder
		if err := run(&b, c.filter, options{}, paths); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		clitest.CheckGolden(t, c.golden, b.String())
	}
}

// TestRunErrors pins the CLI failure modes: no inputs, inputs without an
// audit dump, a JSON file of no kind acaudit reads, and a filter nothing
// matches.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	paths := buildArtifacts(t, dir)
	var flightOnly, auditOnly []string
	for _, p := range paths {
		switch {
		case strings.Contains(p, "flight"):
			flightOnly = append(flightOnly, p)
		case strings.Contains(p, "audit"):
			auditOnly = append(auditOnly, p)
		}
	}
	var b strings.Builder
	if err := run(&b, audit.Filter{}, options{}, nil); err == nil {
		t.Error("no inputs should error")
	}
	if err := run(&b, audit.Filter{}, options{}, flightOnly); err == nil ||
		!strings.Contains(err.Error(), "no audit dumps") {
		t.Errorf("flight-only input error = %v", err)
	}
	// A saved /debug/vars page is JSON, but none of the three kinds.
	vars := filepath.Join(dir, "vars.json")
	if err := os.WriteFile(vars, []byte(`{"cmdline":["acnode"],"memstats":{"Alloc":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, audit.Filter{}, options{}, append(auditOnly, vars)); err == nil ||
		!strings.Contains(err.Error(), vars) || !strings.Contains(err.Error(), "not an audit dump, flight dump or audit stream") {
		t.Errorf("expvar input error = %v, want one naming %s and the kinds read", err, vars)
	}
	if err := run(&b, audit.Filter{User: "nobody"}, options{}, auditOnly); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("unmatched filter error = %v", err)
	}
	if err := run(&b, audit.Filter{}, options{timeline: true}, auditOnly); err == nil ||
		!strings.Contains(err.Error(), "no flight dumps") {
		t.Errorf("timeline without flight dumps error = %v", err)
	}
}

// TestSniffRecordStream feeds a headerless -audit.jsonl record stream (as
// written by acnode's sink, no dump header) and expects acaudit to wrap it
// into a usable dump.
func TestSniffRecordStream(t *testing.T) {
	dir := t.TempDir()
	paths := buildArtifacts(t, dir)
	var hostDump string
	for _, p := range paths {
		if strings.HasSuffix(p, "h0-audit.jsonl") {
			hostDump = p
		}
	}
	data, err := os.ReadFile(hostDump)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	stream := filepath.Join(dir, "stream.jsonl")
	if err := os.WriteFile(stream, []byte(lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, audit.Filter{User: "carol"}, options{}, []string{stream}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reason=default_allow") {
		t.Errorf("record-stream explanation missing default_allow:\n%s", b.String())
	}
}

// renderTimeline runs acaudit -timeline over two single-node flight dumps — a
// host whose clock runs 3s behind its manager's, and the manager, whose ring
// has wrapped — and returns its stdout.
func renderTimeline(t *testing.T, o options) string {
	t.Helper()
	o.timeline = true
	var b strings.Builder
	if err := run(&b, audit.Filter{}, o, []string{filepath.Join("testdata", "h0-flight.jsonl"), filepath.Join("testdata", "m0-flight.jsonl")}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTimelineGolden(t *testing.T) {
	clitest.CheckGolden(t, "timeline.golden", renderTimeline(t, options{}))
}

// TestTimelineHTMLAndMergedOutputs writes the HTML page and the merged dump
// beside the text timeline.
func TestTimelineHTMLAndMergedOutputs(t *testing.T) {
	dir := t.TempDir()
	o := options{html: filepath.Join(dir, "tl.html"), merged: filepath.Join(dir, "merged.jsonl")}
	renderTimeline(t, o)
	page, err := os.ReadFile(o.html)
	for _, want := range []string{"<!DOCTYPE html>", "query-served", "update-quorum"} {
		if err != nil || !strings.Contains(string(page), want) {
			t.Errorf("HTML page missing %q (%v)", want, err)
		}
	}
	f, err := os.Open(o.merged)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if d, err := flight.ReadDump(f); err != nil || strings.Join(d.Header.Nodes, ",") != "h0,m0" || len(d.Records) != 5 || d.Header.Dropped != 2 {
		t.Fatalf("merged dump %+v (%v); want nodes h0,m0, 5 records, 2 dropped", d, err)
	}
}

// TestHTMLWithoutTimeline: -html alone over flight dumps writes the page,
// prints nothing and succeeds, though no audit dump is among the inputs.
func TestHTMLWithoutTimeline(t *testing.T) {
	o := options{html: filepath.Join(t.TempDir(), "tl.html")}
	var b strings.Builder
	if err := run(&b, audit.Filter{}, o, []string{filepath.Join("testdata", "h0-flight.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if page, err := os.ReadFile(o.html); err != nil || !strings.Contains(string(page), "<!DOCTYPE html>") || b.Len() != 0 {
		t.Errorf("page %d bytes (%v), stdout %q; want the page and no text", len(page), err, b.String())
	}
}

func TestTimelineRejectsNoInputs(t *testing.T) {
	if err := run(io.Discard, audit.Filter{}, options{timeline: true}, nil); err == nil {
		t.Fatal("want error when no inputs are given")
	}
}

// TestExplainLiveAddress points acaudit at a debug-style HTTP endpoint
// serving /debug/audit and /debug/flight: the decision is explained with the
// flight history of its check, and the filter still selects.
func TestExplainLiveAddress(t *testing.T) {
	rec := audit.NewRecorder("h0", 16, nil)
	rec.Record(audit.Record{
		Kind: audit.KindDecision, Trace: 0xa1, App: "stocks", User: "alice", Right: "use",
		Reason: audit.ReasonCacheHit, Allowed: true, Granters: 2,
	})
	rec.Record(audit.Record{
		Kind: audit.KindDecision, Trace: 0xa2, App: "stocks", User: "bob", Right: "use",
		Reason: audit.ReasonQuorumDeny, Queried: 2, Denials: 2, Quorum: 2,
	})
	fl := flight.NewRecorder("h0", 16, nil)
	fl.Record(flight.Record{Kind: flight.KindProtocol, Type: "query-sent", Trace: 0xa2, App: "stocks", User: "bob", Peer: "m0"})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/debug/audit":
			rec.WriteDump(w)
		case "/debug/flight":
			fl.WriteDump(w)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	var b strings.Builder
	if err := run(&b, audit.Filter{User: "bob"}, options{}, []string{addr}); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); strings.Contains(out, "alice") || !strings.Contains(out, "reason=quorum_deny") ||
		!strings.Contains(out, "h0 query-sent peer=m0") {
		t.Errorf("filtered explanation wrong:\n%s", out)
	}
	if err := run(io.Discard, audit.Filter{User: "nobody"}, options{}, []string{srv.URL + "/"}); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("unmatched filter error = %v", err)
	}
}

// TestLiveFlightFetchErrors: a node answering 404 for /debug/flight explains
// from its audit dump alone; any other flight failure names the address
// instead of dropping the node's flight history silently.
func TestLiveFlightFetchErrors(t *testing.T) {
	rec := audit.NewRecorder("h0", 16, nil)
	rec.Record(audit.Record{Kind: audit.KindDecision, Trace: 0xa2, App: "stocks", User: "bob", Right: "use",
		Reason: audit.ReasonQuorumDeny, Queried: 2, Denials: 2, Quorum: 2})
	for _, c := range []struct {
		name   string
		flight http.HandlerFunc
		errHas string // "" for success
	}{
		{"404", http.NotFound, ""},
		{"500", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) }, "500"},
		{"garbage", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "not json\n") }, "not JSON"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) { rec.WriteDump(w) })
		mux.Handle("/debug/flight", c.flight)
		srv := httptest.NewServer(mux)
		addr := strings.TrimPrefix(srv.URL, "http://")
		err := run(io.Discard, audit.Filter{}, options{}, []string{addr})
		srv.Close()
		if c.errHas == "" {
			if err != nil {
				t.Errorf("%s: %v, want the audit-only explanation", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.errHas) || !strings.Contains(err.Error(), addr) {
			t.Errorf("%s: error %v, want one naming %s and %q", c.name, err, addr, c.errHas)
		}
	}
}
