package main

// Golden tests: a deterministic simulated deployment produces three
// canonical decisions — a cache-hit allow, a quorum deny, and a
// partition-era default allow — its merged journal is written to disk, and
// acaudit must reconstruct each decision's evidence chain from the file
// alone.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanac/internal/clitest"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/wire"
)

// buildArtifacts runs the deterministic scenario and writes its merged
// journal to dir, returning the file's path.
func buildArtifacts(t *testing.T, dir string) string {
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

	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FlightDump().Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExplainGolden pins the full causal explanations for the three
// canonical decisions, reconstructed purely from the dump file.
func TestExplainGolden(t *testing.T) {
	paths := []string{buildArtifacts(t, t.TempDir())}
	for _, c := range []struct {
		golden string
		filter flight.Filter
	}{
		{"explain_cache_hit.golden", flight.Filter{User: "alice", Last: 1}},
		{"explain_quorum_deny.golden", flight.Filter{User: "bob"}},
		{"explain_default_allow.golden", flight.Filter{User: "carol"}},
	} {
		var b strings.Builder
		if err := run(&b, c.filter, options{}, paths); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		clitest.CheckGolden(t, c.golden, b.String())
	}
}

// TestRunErrors pins the CLI failure modes: no inputs, a JSON file of no
// kind acaudit reads, and a filter nothing matches — also over dumps that
// hold no decision at all.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	paths := []string{buildArtifacts(t, dir)}
	var b strings.Builder
	if err := run(&b, flight.Filter{}, options{}, nil); err == nil {
		t.Error("no inputs should error")
	}
	// A saved /debug/vars page is JSON, but no journal.
	vars := filepath.Join(dir, "vars.json")
	if err := os.WriteFile(vars, []byte(`{"cmdline":["acnode"],"memstats":{"Alloc":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, flight.Filter{}, options{}, append(paths, vars)); err == nil ||
		!strings.Contains(err.Error(), vars) || !strings.Contains(err.Error(), "record without node") {
		t.Errorf("expvar input error = %v, want one naming %s", err, vars)
	}
	if err := run(&b, flight.Filter{User: "nobody"}, options{}, paths); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("unmatched filter error = %v", err)
	}
	if err := run(&b, flight.Filter{}, options{}, []string{filepath.Join("testdata", "h0-flight.jsonl")}); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("decision-free input error = %v", err)
	}
}

// TestSniffRecordStream feeds a headerless record stream (as written by
// acnode's -audit.jsonl sink, no dump header) and expects acaudit to read it
// as a dump.
func TestSniffRecordStream(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(buildArtifacts(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	stream := filepath.Join(dir, "stream.jsonl")
	if err := os.WriteFile(stream, []byte(lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, flight.Filter{User: "carol"}, options{}, []string{stream}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reason=default_allow") {
		t.Errorf("record-stream explanation missing default_allow:\n%s", b.String())
	}
}

// renderTimeline runs acaudit -timeline over two single-node journal dumps —
// a host whose clock runs 3s behind its manager's, and the manager, whose
// journal has wrapped — and returns its stdout.
func renderTimeline(t *testing.T, o options) string {
	t.Helper()
	o.timeline = true
	var b strings.Builder
	if err := run(&b, flight.Filter{}, o, []string{filepath.Join("testdata", "h0-flight.jsonl"), filepath.Join("testdata", "m0-flight.jsonl")}); err != nil {
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

// TestHTMLWithoutTimeline: -html alone writes the page, prints nothing and
// succeeds, though the input holds no decision to explain.
func TestHTMLWithoutTimeline(t *testing.T) {
	o := options{html: filepath.Join(t.TempDir(), "tl.html")}
	var b strings.Builder
	if err := run(&b, flight.Filter{}, o, []string{filepath.Join("testdata", "h0-flight.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if page, err := os.ReadFile(o.html); err != nil || !strings.Contains(string(page), "<!DOCTYPE html>") || b.Len() != 0 {
		t.Errorf("page %d bytes (%v), stdout %q; want the page and no text", len(page), err, b.String())
	}
}

func TestTimelineRejectsNoInputs(t *testing.T) {
	if err := run(io.Discard, flight.Filter{}, options{timeline: true}, nil); err == nil {
		t.Fatal("want error when no inputs are given")
	}
}

// TestExplainLiveAddress points acaudit at a debug-style HTTP endpoint
// serving /debug/journal: the decision is explained with the protocol
// history of its check, and the filter still selects.
func TestExplainLiveAddress(t *testing.T) {
	rec := flight.NewRecorder("h0", 16, nil)
	rec.Record(flight.Record{
		Kind: flight.KindDecision, Trace: 0xa1, App: "stocks", User: "alice", Right: "use",
		Reason: flight.ReasonCacheHit, Allowed: true, Granters: 2,
	})
	rec.Record(flight.Record{Kind: flight.KindProtocol, Type: "query-sent", Trace: 0xa2, App: "stocks", User: "bob", Peer: "m0"})
	rec.Record(flight.Record{
		Kind: flight.KindDecision, Trace: 0xa2, App: "stocks", User: "bob", Right: "use",
		Reason: flight.ReasonQuorumDeny, Queried: 2, Denials: 2, Quorum: 2,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/journal", func(w http.ResponseWriter, r *http.Request) { rec.WriteDump(w) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	var b strings.Builder
	if err := run(&b, flight.Filter{User: "bob"}, options{}, []string{addr}); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); strings.Contains(out, "alice") || !strings.Contains(out, "reason=quorum_deny") ||
		!strings.Contains(out, "h0 query-sent peer=m0") {
		t.Errorf("filtered explanation wrong:\n%s", out)
	}
	if err := run(io.Discard, flight.Filter{User: "nobody"}, options{}, []string{srv.URL + "/"}); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("unmatched filter error = %v", err)
	}
}

// TestLiveFlightFetchErrors: a node whose /debug/journal cannot be read —
// not served, failing, or serving something else — is an error naming its
// address, not a node silently left out.
func TestLiveFlightFetchErrors(t *testing.T) {
	for _, c := range []struct {
		name    string
		journal http.HandlerFunc
		errHas  string
	}{
		{"404", http.NotFound, "404"},
		{"500", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) }, "500"},
		{"garbage", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "not json\n") }, "bad dump header"},
	} {
		mux := http.NewServeMux()
		mux.Handle("/debug/journal", c.journal)
		srv := httptest.NewServer(mux)
		addr := strings.TrimPrefix(srv.URL, "http://")
		err := run(io.Discard, flight.Filter{}, options{}, []string{addr})
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), c.errHas) || !strings.Contains(err.Error(), addr) {
			t.Errorf("%s: error %v, want one naming %s and %q", c.name, err, addr, c.errHas)
		}
	}
}
