package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stampInfo says where a snapshot's numbers came from.
type stampInfo struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    string  `json:"windows"`
	Network    string  `json:"network"`
}

// stamp fills the stamp from the flag, else from what `go build` recorded
// in the binary (the same commit and dirty flag `git rev-parse HEAD` and
// `git status --porcelain` would give, without running git).
func stamp(commit string, o options) stampInfo {
	s := stampInfo{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(), Seed: o.seed, Seconds: o.seconds,
		Windows: fmt.Sprintf("end to end: %gs in %d slices, 0.7 of each at full load and 0.3 a speed reading, times in reference seconds; per layer (as measured): %gs single-caller reference, revocations, up to %gs traced; sim: fixed pass counts",
			o.seconds, slices, o.seconds/4, o.seconds/2),
		Network: "loopback, no injected delay: live latencies are processor and kernel time",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				if s.Commit == "" {
					s.Commit = kv.Value
				}
			case "vcs.modified":
				s.Dirty = kv.Value == "true"
			}
		}
	}
	if s.Commit == "" {
		s.Commit = "unknown"
	}
	return s
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return runtime.GOARCH
}

// snapshot is one stamped invocation over all workloads: what history/
// keeps and -compare reads.
type snapshot struct {
	Stamp     stampInfo                   `json:"stamp"`
	Workloads map[string]*workloadNumbers `json:"workloads"`
}

type workloadNumbers struct {
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	EndToEnd  []metric `json:"end_to_end"`
	Measured  []string `json:"as_measured,omitempty"` // the end-to-end pass before the reference clock
	PerLayer  []metric `json:"per_layer"`
}

func (s *snapshot) add(r *result) {
	if s.Workloads == nil {
		s.Workloads = map[string]*workloadNumbers{}
	}
	w := s.Workloads[r.workload]
	if w == nil {
		w = &workloadNumbers{}
		s.Workloads[r.workload] = w
	}
	w.Attempted += r.attempted
	w.Failed += r.failed
	if r.trace == 0 {
		w.EndToEnd, w.Measured = r.metrics.list, r.info
	} else {
		w.PerLayer = r.metrics.list
	}
}

// write refuses to overwrite: a history snapshot is written once.
func (s *snapshot) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readSet reads one snapshot file, or every *.json in a directory.
func readSet(path string) ([]*snapshot, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	var set []*snapshot
	for _, p := range paths {
		s, err := readSnapshot(p)
		if err != nil {
			return nil, err
		}
		set = append(set, s)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no snapshots", path)
	}
	return set, nil
}

// values collects one end-to-end metric of one workload across a set, and
// the widest slice spread any run recorded for it.
func values(set []*snapshot, workload, name string) (vals []float64, spread float64) {
	for _, s := range set {
		w := s.Workloads[workload]
		if w == nil {
			continue
		}
		for _, m := range w.EndToEnd {
			if m.Name == name {
				vals = append(vals, m.Value)
				if m.Spread > spread {
					spread = m.Spread
				}
			}
		}
	}
	return vals, spread
}

// printHistory prints the trajectory of every end-to-end metric across the
// snapshots in dir, oldest first (file names sort by issue number).
func printHistory(dir string, stdout, stderr io.Writer) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(stderr, "bench: no snapshots in %s\n", dir)
		return 1
	}
	sort.Slice(paths, func(a, b int) bool {
		la, lb := len(filepath.Base(paths[a])), len(filepath.Base(paths[b]))
		if la != lb {
			return la < lb // 9.json before 12.json
		}
		return paths[a] < paths[b]
	})
	var snaps []*snapshot
	for _, p := range paths {
		s, err := readSnapshot(p)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		snaps = append(snaps, s)
		commit := s.Stamp.Commit
		if len(commit) > 12 {
			commit = commit[:12]
		}
		fmt.Fprintf(stdout, "%-10s commit %s dirty=%v %s GOMAXPROCS=%d seed=%d seconds=%g\n",
			strings.TrimSuffix(filepath.Base(p), ".json"), commit, s.Stamp.Dirty,
			s.Stamp.GoVersion, s.Stamp.GOMAXPROCS, s.Stamp.Seed, s.Stamp.Seconds)
	}
	for _, wd := range workloads {
		fmt.Fprintf(stdout, "\n%s\n", wd.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  %-24s %-6s", d.Name, d.Unit)
			for _, s := range snaps {
				if vals, _ := values([]*snapshot{s}, wd.Name, d.Name); len(vals) == 1 {
					fmt.Fprintf(stdout, " %14.4f", vals[0])
				} else {
					fmt.Fprintf(stdout, " %14s", "-")
				}
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// compareSnapshots prints, per workload and end-to-end metric, the medians
// of the two sets, how much worse B is than A as a share of A, and the
// metric's bound, and marks each row: ok, regressed (worse by more than the
// bound), or unresolved (worse by more than the bound, but the spread —
// between runs when a set has four or more, else between a run's slices —
// is wider than the bound, so the difference cannot be told from noise).
// The exit code is 1 if any row regressed.
func compareSnapshots(a, b string, stdout, stderr io.Writer) int {
	setA, err := readSet(a)
	if err == nil {
		var setB []*snapshot
		if setB, err = readSet(b); err == nil {
			return compareSets(setA, setB, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(setA, setB []*snapshot, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wd := range workloads {
		for _, d := range endToEnd {
			va, spreadA := values(setA, wd.Name, d.Name)
			vb, spreadB := values(setB, wd.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			spread := spreadA
			if spreadB > spread {
				spread = spreadB
			}
			if len(va) >= 4 && len(vb) >= 4 {
				spread = iqrRatio(va)
				if s := iqrRatio(vb); s > spread {
					spread = s
				}
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "regressed"
				if spread > d.Bound {
					verdict = "unresolved"
				} else {
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n",
				wd.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
