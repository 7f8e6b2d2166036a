package main

import (
	"strings"
	"testing"
	"time"

	"wanac/internal/clitest"
)

// TestCheckPrintsEvidence drives the check verb with no reachable manager:
// the ephemeral host exhausts its attempts, the fail-safe default denies,
// and the printed explanation must cite that reasoning before the error.
func TestCheckPrintsEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	out, err := clitest.Capture(t, func() error {
		// 127.0.0.1:1 is reserved-unreachable: queries go nowhere.
		return run("m0=127.0.0.1:1", "root", 2*time.Second, "tcp", "", "", 1,
			[]string{"check", "stocks", "alice"})
	})
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("unreachable check returned %v, want denied", err)
	}
	for _, want := range []string{"DENY reason=deny_unreachable", "evidence:", "fail-safe policy denies"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}
