package harness

import (
	"reflect"
	"strings"
	"testing"

	"wanac/internal/flight"
	"wanac/internal/trace"
)

// TestCleanRunKeepsNoLog: a run is judged as it goes, so a clean one keeps
// no trace log and has no dump to replay.
func TestCleanRunKeepsNoLog(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, r, err := runScenario(Generate(seed), Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() {
			t.Fatalf("seed %d failed: %v", seed, res.Violations)
		}
		if r.W.Tracer != nil {
			t.Fatalf("seed %d: the world kept a trace log of %d events", seed, len(r.W.Tracer.Events()))
		}
		if res.replay != nil || res.FlightDump() != nil {
			t.Errorf("seed %d: a clean run has a flight dump to make", seed)
		}
	}
}

// TestReplayedDumpMatchesRetainedRun: a failed run's flight dump comes from
// a replay with the trace log kept; it must be the dump of the same run
// built with the log on, byte for byte, with the same violations marked.
// The judged run's journals keep no record; the replay's log keeps no cache
// hit, which its dump reads from the hit's decision record.
func TestReplayedDumpMatchesRetainedRun(t *testing.T) {
	opt := Options{InflateTe: true, DropRevokeNotices: true}
	for _, seed := range []int64{1, 2, 3} {
		sc := Generate(seed)
		res, r, err := runScenario(sc, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Failed() {
			t.Fatalf("seed %d: injected bugs tripped no oracle", seed)
		}
		if r.W.Tracer != nil {
			t.Fatalf("seed %d: the judged run kept a trace log", seed)
		}
		for _, j := range r.W.Journals {
			if j.Dropped() != j.Total() {
				t.Errorf("seed %d: judged %s's journal kept %d records", seed, j.Node(), j.Total()-j.Dropped())
			}
		}
		kept, kr, err := runScenario(sc, opt, flightRing)
		if err != nil {
			t.Fatal(err)
		}
		var hits uint64
		for _, h := range kr.W.Hosts {
			hits += h.Stats().CacheHits
		}
		if n := kr.W.Tracer.Count(trace.EventCacheHit); hits == 0 || n != 0 {
			t.Errorf("seed %d: the replay's log kept %d of its hosts' %d cache hits, want none of some", seed, n, hits)
		}
		if !reflect.DeepEqual(res.Violations, kept.Violations) || !reflect.DeepEqual(res.Oracles, kept.Oracles) {
			t.Fatalf("seed %d: the run with its log kept judged differently:\n%v\nvs\n%v", seed, res.Violations, kept.Violations)
		}
		replayed, retained := dumpText(t, res.FlightDump()), dumpText(t, kept.FlightDump())
		if replayed != retained {
			t.Fatalf("seed %d: replayed dump (%d bytes) differs from the retained run's (%d bytes)",
				seed, len(replayed), len(retained))
		}
	}
}

func dumpText(t *testing.T, d *flight.Dump) string {
	t.Helper()
	if d == nil {
		t.Fatal("failed run has no flight dump")
	}
	var b strings.Builder
	if err := d.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
