package main

// Golden tests: a deterministic simulated deployment produces the three
// canonical decisions the ISSUE's acceptance demands — a cache-hit allow,
// a quorum deny, and a partition-era default allow — its audit/flight/span
// artifacts are written to disk, and acaudit must reconstruct each
// decision's evidence chain from the files alone.

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/clitest"
	"wanac/internal/core"
	"wanac/internal/sim"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// buildArtifacts runs the deterministic scenario and dumps every node's
// audit ring, the merged flight dump, and the span stream to dir,
// returning the file paths in sniffable (mixed) order.
func buildArtifacts(t *testing.T, dir string) []string {
	t.Helper()
	spans := &telemetry.SpanBuffer{}
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
		Telemetry:  telemetry.NewRegistry(),
		Spans:      spans,
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
	writeTo("spans.jsonl", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans.Spans() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
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
		if err := run(&b, c.filter, paths); err != nil {
			t.Fatalf("%s: %v", c.golden, err)
		}
		clitest.CheckGolden(t, c.golden, b.String())
	}
}

// TestRunErrors pins the CLI failure modes: no inputs, inputs without an
// audit dump, and a filter nothing matches.
func TestRunErrors(t *testing.T) {
	paths := buildArtifacts(t, t.TempDir())
	var spanOnly, auditOnly []string
	for _, p := range paths {
		switch {
		case strings.Contains(p, "spans"):
			spanOnly = append(spanOnly, p)
		case strings.Contains(p, "audit"):
			auditOnly = append(auditOnly, p)
		}
	}
	var b strings.Builder
	if err := run(&b, audit.Filter{}, nil); err == nil {
		t.Error("no inputs should error")
	}
	if err := run(&b, audit.Filter{}, spanOnly); err == nil ||
		!strings.Contains(err.Error(), "no audit dumps") {
		t.Errorf("span-only input error = %v", err)
	}
	if err := run(&b, audit.Filter{User: "nobody"}, auditOnly); err == nil ||
		!strings.Contains(err.Error(), "no decisions match") {
		t.Errorf("unmatched filter error = %v", err)
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
	if err := run(&b, audit.Filter{User: "carol"}, []string{stream}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reason=default_allow") {
		t.Errorf("record-stream explanation missing default_allow:\n%s", b.String())
	}
}
