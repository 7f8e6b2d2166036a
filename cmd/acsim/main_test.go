package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wanac/internal/flight"
)

var update = flag.Bool("update", false, "rewrite golden files")

// capture runs fn with os.Stdout redirected and returns what it wrote plus
// fn's error (golden transcripts of failing scenarios need both).
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fnErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, fnErr
}

func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/acsim -update)", err)
	}
	if out != string(want) {
		t.Errorf("output diverged from %s.\n--- got ---\n%s--- want ---\n%s", name, out, want)
	}
}

// TestListGolden pins the full `acsim list` gallery: scenario names,
// summaries, and shapes are part of the operator contract.
func TestListGolden(t *testing.T) {
	out, err := capture(t, cmdList)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "list.golden", out)
}

// TestRunGolden pins full `acsim run` transcripts of the four scenarios the
// sim-catalog benchmark runs. The scenario engine is deterministic from the
// seed, so the entire transcript — check counts, revocation lags, network
// counters, oracle verdicts — is golden-stable: a reordered tie between two
// events or a shifted rng draw in the simulator fails here.
func TestRunGolden(t *testing.T) {
	for _, name := range []string{"steady-baseline", "zipf-flood", "overload-100x", "revoke-under-partition"} {
		t.Run(name, func(t *testing.T) {
			out, err := capture(t, func() error {
				return cmdRun([]string{name})
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "run_"+strings.ReplaceAll(name, "-", "_")+".golden", out)
		})
	}
}

// TestRunBrokenWritesFlightDump drives the deliberately broken catalog
// scenario through the CLI with -flight: the run must report violations
// (non-zero exit path) and leave a parseable flight-dump artifact with the
// oracle marks on the timeline.
func TestRunBrokenWritesFlightDump(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("WANAC_ARTIFACTS", dir)
	out, err := capture(t, func() error {
		return cmdRun([]string{"-flight", "stale-allow-demo"})
	})
	if !errors.Is(err, errViolations) {
		t.Fatalf("broken scenario returned %v, want errViolations", err)
	}
	path := filepath.Join(dir, "wanac-flight-scenario-stale-allow-demo.jsonl")
	f, openErr := os.Open(path)
	if openErr != nil {
		t.Fatalf("flight artifact missing: %v\ntranscript:\n%s", openErr, out)
	}
	defer f.Close()
	dump, readErr := flight.ReadDump(f)
	if readErr != nil {
		t.Fatalf("artifact unreadable: %v", readErr)
	}
	marks := 0
	for _, rec := range dump.Records {
		if rec.Kind == flight.KindMark && rec.Type == "oracle-violation" {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("artifact has no oracle-violation marks")
	}
}

// TestRunUnknownScenario pins the CLI error path.
func TestRunUnknownScenario(t *testing.T) {
	if _, err := capture(t, func() error {
		return cmdRun([]string{"no-such-scenario"})
	}); err == nil {
		t.Fatal("unknown scenario should error")
	}
}
