package main

import (
	"strings"
	"testing"

	"wanac/internal/clitest"
)

// TestGolden pins the analytic artifacts byte for byte: Tables 1 and 2 as
// the paper prints them (the cells internal/quorum's tests pin one by one)
// and the §4.1 planner's answer for one set of targets. No Monte Carlo
// columns (-mc 0), so every run prints the same bytes.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		table  int
		plan   string
	}{
		{"table1.golden", 1, ""},
		{"table2.golden", 2, ""},
		{"plan.golden", 0, "0.99,0.99,0.2"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			out, err := clitest.Capture(t, func() error {
				return run(c.table, 0, false, c.plan, 0, 1)
			})
			if err != nil {
				t.Fatal(err)
			}
			clitest.CheckGolden(t, c.golden, out)
		})
	}
}

// TestNothingSelected pins the error a bare `actable` exits 1 with.
func TestNothingSelected(t *testing.T) {
	out, err := clitest.Capture(t, func() error {
		return run(0, 0, false, "", 0, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "nothing selected; use -table 1|2, -figure 5, -hetero, or -plan PA,PS,Pi") {
		t.Errorf("error %v, want the nothing-selected hint", err)
	}
	if out != "" {
		t.Errorf("printed %q before failing", out)
	}
}
