// Package clitest holds what the cmd/ golden tests share: stdout capture
// and comparison against testdata/ files, rewritten under -update.
package clitest

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Capture runs fn with os.Stdout redirected and returns what it wrote plus
// fn's error (golden transcripts of failing scenarios need both).
func Capture(t *testing.T, fn func() error) (string, error) {
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

// CheckGolden compares out with the calling package's testdata/name.
func CheckGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if out != string(want) {
		t.Errorf("output diverged from %s.\n--- got ---\n%s--- want ---\n%s", name, out, want)
	}
}
