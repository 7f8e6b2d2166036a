package scenario

import (
	"strings"
	"testing"

	"wanac/internal/flight"
)

// TestCleanRunKeepsNoLog: the oracles judge a catalog run as it goes, so a
// clean one keeps no trace log and has no dump to replay.
func TestCleanRunKeepsNoLog(t *testing.T) {
	for _, name := range []string{"steady-baseline", "revoke-under-partition"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := run(sc, sc.Seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.res.Failed() {
			t.Fatalf("%s failed: %v", name, r.res.Violations)
		}
		if r.W.Tracer != nil {
			t.Errorf("%s: the world kept a trace log", name)
		}
		if r.res.FlightDump() != nil {
			t.Errorf("%s: a clean run has a flight dump", name)
		}
	}
}

// TestReplayedDumpMatchesRetainedRun: stale-allow-demo fails, and its flight
// dump, made by a replay with the trace log kept, is byte for byte the dump
// of the same run built with the log on.
func TestReplayedDumpMatchesRetainedRun(t *testing.T) {
	sc, err := Lookup("stale-allow-demo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("stale-allow-demo tripped no oracle")
	}
	kept, err := run(sc, sc.Seed, flightRing)
	if err != nil {
		t.Fatal(err)
	}
	if kept.W.Tracer == nil {
		t.Fatal("the run built for a dump kept no trace log")
	}
	if replayed, retained := dumpText(t, res.FlightDump()), dumpText(t, kept.res.FlightDump()); replayed != retained {
		t.Fatalf("replayed dump (%d bytes) differs from the retained run's (%d bytes)", len(replayed), len(retained))
	}
}

// TestRingDropsAreTheReplaysDrops: a judged world's journals keep no
// window, so the transcript's ring drops are counted against the window a
// replay for a flight dump keeps. For overload-100x at seed 1 they are the
// 221 its golden prints, and exactly what the replay's journals drop.
func TestRingDropsAreTheReplaysDrops(t *testing.T) {
	sc, err := Lookup("overload-100x")
	if err != nil {
		t.Fatal(err)
	}
	judged, err := run(sc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := run(sc, 1, flightRing)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range judged.W.Journals {
		if j.Dropped() != j.Total() {
			t.Errorf("judged %s's journal kept %d of its %d records", j.Node(), j.Total()-j.Dropped(), j.Total())
		}
	}
	var dropped, records uint64
	for _, j := range replay.W.Journals {
		dropped += j.Dropped()
		records += j.Total()
	}
	if a := judged.res.Audit; a.Dropped != 221 || a.Dropped != dropped || a.Records != records {
		t.Errorf("judged run: %d records, %d ring drops; replay's journals: %d, %d; want 221 drops",
			a.Records, a.Dropped, records, dropped)
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
