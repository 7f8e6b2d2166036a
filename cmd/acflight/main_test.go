package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wanac/internal/clitest"
	"wanac/internal/flight"
)

// render runs acflight over the two testdata dumps and returns its stdout.
func render(t *testing.T, htmlOut, mergedOut string, noText bool) string {
	t.Helper()
	out, err := clitest.Capture(t, func() error {
		return run(htmlOut, mergedOut, noText, []string{filepath.Join("testdata", "h0.jsonl"), filepath.Join("testdata", "m0.jsonl")})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTimelineGolden(t *testing.T) {
	clitest.CheckGolden(t, "timeline.golden", render(t, "", "", false))
}

func TestHTMLAndMergedOutputs(t *testing.T) {
	dir := t.TempDir()
	htmlOut := filepath.Join(dir, "tl.html")
	mergedOut := filepath.Join(dir, "merged.jsonl")
	render(t, htmlOut, mergedOut, true)
	htmlBody, err := os.ReadFile(htmlOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "query-served", "update-quorum"} {
		if !bytes.Contains(htmlBody, []byte(want)) {
			t.Errorf("HTML missing %q", want)
		}
	}
	f, err := os.Open(mergedOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := flight.ReadDump(f)
	if err != nil {
		t.Fatalf("merged output does not parse as a dump: %v", err)
	}
	if got := strings.Join(d.Header.Nodes, ","); got != "h0,m0" {
		t.Fatalf("merged nodes = %q, want h0,m0", got)
	}
	if len(d.Records) != 5 {
		t.Fatalf("merged records = %d, want 5", len(d.Records))
	}
	if d.Header.Dropped != 2 {
		t.Fatalf("merged dropped = %d, want 2", d.Header.Dropped)
	}
}

func TestRunRejectsNoInputs(t *testing.T) {
	if err := run("", "", false, nil); err == nil {
		t.Fatal("want error when no dump files are given")
	}
}
