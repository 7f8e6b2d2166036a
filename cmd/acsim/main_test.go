package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wanac/internal/clitest"
	"wanac/internal/flight"
	"wanac/internal/harness"
)

// TestListGolden pins the full `acsim list` gallery: scenario names,
// summaries, and shapes are part of the operator contract.
func TestListGolden(t *testing.T) {
	out, err := clitest.Capture(t, cmdList)
	if err != nil {
		t.Fatal(err)
	}
	clitest.CheckGolden(t, "list.golden", out)
}

// TestRunGolden pins full `acsim run` transcripts of the four scenarios the
// sim-catalog benchmark runs. The scenario engine is deterministic from the
// seed, so the entire transcript — check counts, revocation lags, network
// counters, oracle verdicts — is golden-stable: a reordered tie between two
// events or a shifted rng draw in the simulator fails here.
func TestRunGolden(t *testing.T) {
	for _, name := range []string{"steady-baseline", "zipf-flood", "overload-100x", "revoke-under-partition"} {
		t.Run(name, func(t *testing.T) {
			out, err := clitest.Capture(t, func() error {
				return cmdRun([]string{name})
			})
			if err != nil {
				t.Fatal(err)
			}
			clitest.CheckGolden(t, "run_"+strings.ReplaceAll(name, "-", "_")+".golden", out)
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
	out, err := clitest.Capture(t, func() error {
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
	if _, err := clitest.Capture(t, func() error {
		return cmdRun([]string{"no-such-scenario"})
	}); err == nil {
		t.Fatal("unknown scenario should error")
	}
}

// TestExitStatus pins what a CI job branches on: a command line acsim cannot
// act on exits 2 with the usage on stderr, a scenario that violated its
// oracles exits 1 without it, and nothing but a subcommand simulates.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		status int
		stderr string // fragment the error line must carry
	}{
		{"no arguments", nil, 2, "no command"},
		{"leading flag", []string{"-managers", "10", "-d", "1h"}, 2, `unknown command "-managers"`},
		{"unknown command", []string{"simulate"}, 2, `unknown command "simulate"`},
		{"run without a name", []string{"run", "-seed", "3"}, 2, "no scenario name"},
		{"run unknown scenario", []string{"run", "no-such-scenario"}, 2, `unknown scenario "no-such-scenario"`},
		{"run unknown flag", []string{"run", "steady-baseline", "-preset", "freeze"}, 2, "-preset"},
		{"oracle violations", []string{"run", "stale-allow-demo"}, 1, errViolations.Error()},
		{"check no seeds", []string{"check", "-seeds", "0"}, 2, "-seeds must be at least 1"},
		{"check unknown flag", []string{"check", "-log.level", "debug"}, 2, "-log.level"},
		{"clean", []string{"list"}, 0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			status := 0
			stdout, _ := clitest.Capture(t, func() error {
				status = run(c.args, &stderr)
				return nil
			})
			if status != c.status {
				t.Errorf("exit status %d, want %d\nstderr: %s", status, c.status, &stderr)
			}
			if c.stderr == "" && stderr.Len() != 0 {
				t.Errorf("clean run wrote to stderr: %q", &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q, want it to carry %q", &stderr, c.stderr)
			}
			if got, want := strings.HasSuffix(stderr.String(), usage), c.status == 2; got != want {
				t.Errorf("usage text printed = %v at exit status %d, want %v", got, c.status, want)
			}
			if c.status == 2 && stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestCheckCLI drives `acsim check` both clean — exit 0 and the full JSON
// report of seeds 1-40 pinned byte for byte, so drift on the seeded side
// fails here as the catalog's does in TestRunGolden — and with injected
// bugs: exit 1, every failure carrying a replay line and a flight dump
// written under $WANAC_ARTIFACTS, and -v's one line per seed on stderr.
func TestCheckCLI(t *testing.T) {
	check := func(t *testing.T, args ...string) (status int, stdout, stderr string) {
		t.Helper()
		var errBuf bytes.Buffer
		stdout, _ = clitest.Capture(t, func() error {
			status = run(append([]string{"check"}, args...), &errBuf)
			return nil
		})
		return status, stdout, errBuf.String()
	}

	t.Run("clean", func(t *testing.T) {
		status, out, stderr := check(t, "-seeds", "40", "-minimize", "0")
		if status != 0 || stderr != "" {
			t.Fatalf("exit status %d, stderr %q; want 0 and nothing", status, stderr)
		}
		clitest.CheckGolden(t, "check_seeds40.golden", out)
	})

	t.Run("injected-bug", func(t *testing.T) {
		dir := t.TempDir()
		t.Setenv("WANAC_ARTIFACTS", dir)
		status, out, stderr := check(t, "-seeds", "3", "-minimize", "20", "-v", "-inject-te", "-inject-drop-notices")
		if status != 1 {
			t.Fatalf("exit status %d on injected bugs, want 1\nstderr: %s", status, stderr)
		}
		var report harness.SuiteReport
		if err := json.Unmarshal([]byte(out), &report); err != nil {
			t.Fatalf("report is not valid JSON: %v\n%s", err, out)
		}
		if len(report.Failures) == 0 {
			t.Fatal("injected bugs produced no failures in the report")
		}
		for _, f := range report.Failures {
			if f.Replay == "" || len(f.Violations) == 0 {
				t.Errorf("seed %d failure lacks its replay artifact: %+v", f.Seed, f)
			}
			if filepath.Dir(f.FlightDump) != dir {
				t.Errorf("seed %d flight dump %q not under $WANAC_ARTIFACTS %s", f.Seed, f.FlightDump, dir)
			}
		}
		for _, seed := range []string{"seed 1: ", "seed 2: ", "seed 3: "} {
			if !strings.Contains(stderr, seed) {
				t.Errorf("-v printed no %q line:\n%s", seed, stderr)
			}
		}
	})
}
