package sim

import (
	"slices"
	"strings"
	"testing"
	"time"

	"wanac/internal/clitest"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// TestFlightDumpMergesAllNodes checks World.FlightDump covers every node,
// and that ResetTrial empties it along with the trace log it is read from.
func TestFlightDumpMergesAllNodes(t *testing.T) {
	w, err := Build(Config{
		Managers: 2, Hosts: 1,
		Policy:     core.Policy{CheckQuorum: 1, QueryTimeout: time.Second, MaxAttempts: 2},
		Users:      []wire.UserID{"alice"},
		FlightRing: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.CheckSync(0, "alice", wire.RightUse, time.Minute)
	d := w.FlightDump()
	if d == nil {
		t.Fatal("FlightDump returned nil with flight enabled")
	}
	want := map[string]bool{"h0": true, "m0": true, "m1": true, "net": true}
	if len(d.Header.Nodes) != len(want) {
		t.Fatalf("dump nodes = %v, want h0 m0 m1 net", d.Header.Nodes)
	}
	for _, n := range d.Header.Nodes {
		if !want[n] {
			t.Fatalf("unexpected node %q in dump", n)
		}
	}
	w.ResetTrial()
	for _, r := range w.FlightDump().Records {
		if r.Node != "net" {
			t.Errorf("record outlived ResetTrial: %+v", r)
		}
	}
}

// TestFlightDisabled checks there is no flight dump under a no-op tracer or
// when FlightRing is zero.
func TestFlightDisabled(t *testing.T) {
	for _, cfg := range []Config{
		{Managers: 1, Policy: core.Policy{CheckQuorum: 1}},
		{Managers: 1, Policy: core.Policy{CheckQuorum: 1}, Tracer: trace.Nop{}, FlightRing: 64},
	} {
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.FlightDump() != nil {
			t.Errorf("flight dump built for cfg %+v", cfg)
		}
	}
}

// TestWindowsOnlyWhereADumpIsMade: a world's journals keep their records
// only if it makes a FlightDump, and otherwise count them and keep none.
// Its trace log keeps every event when it is the world's only tracer, and
// every event but a cache hit beside one of the caller's, which still gets
// the hit.
func TestWindowsOnlyWhereADumpIsMade(t *testing.T) {
	for _, c := range []struct {
		tracer     *trace.Collector
		flightRing int
		kept       int
	}{
		{nil, 0, 0},
		{nil, 64, 2},
		{trace.NewCollector(), 64, 2},
	} {
		cfg := Config{Managers: 1, Hosts: 1, Policy: basePolicy(1), Te: time.Minute, Users: []wire.UserID{"alice"},
			FlightRing: c.flightRing, AuditRing: 64}
		logHits := 1
		if c.tracer != nil {
			cfg.Tracer, logHits = c.tracer, 0
		}
		w := build(t, cfg)
		w.CheckSync(0, "alice", wire.RightUse, time.Minute)
		w.CheckSync(0, "alice", wire.RightUse, time.Minute) // a cache hit
		h := w.Journals[0]
		if h.Node() != "h0" || h.Decisions() != 2 || len(h.Snapshot()) != c.kept || h.Dropped() != h.Total()-uint64(c.kept) {
			t.Errorf("FlightRing %d: h0's journal kept %d of %d records, want %d", c.flightRing, len(h.Snapshot()), h.Total(), c.kept)
		}
		if c.tracer != nil && c.tracer.Count(trace.EventCacheHit) != 1 {
			t.Errorf("the caller's tracer got %d cache hits, want 1", c.tracer.Count(trace.EventCacheHit))
		}
		if n := w.Tracer.Count(trace.EventCacheHit); n != logHits {
			t.Errorf("tracer %v, FlightRing %d: the log kept %d cache hits, want %d", c.tracer != nil, c.flightRing, n, logHits)
		}
	}
}

// TestFlightDumpWindowGolden pins a dump whose window is smaller than what
// most nodes recorded: the last FlightRing records per node, numbered per
// node from Seq 0, with dropped counting the rest. The drifting host h1
// records little, so its build-time clock-rate record stays its Seq 0; each
// node's decisions and responses follow from its journal.
func TestFlightDumpWindowGolden(t *testing.T) {
	const window = 5
	w, err := Build(Config{
		Managers: 3, Hosts: 2,
		Policy: core.Policy{
			CheckQuorum: 2, Te: 30 * time.Second,
			QueryTimeout: time.Second, MaxAttempts: 2,
		},
		Te:             30 * time.Second,
		Users:          []wire.UserID{"alice", "bob"},
		HostClockRates: []float64{0, 0.9},
		FlightRing:     window,
		AuditRing:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []wire.UserID{"alice", "bob", "carol"} {
		w.CheckSync(0, u, wire.RightUse, time.Minute)
	}
	w.CheckSync(0, "alice", wire.RightUse, time.Minute) // cache hit
	w.CheckSync(1, "alice", wire.RightUse, time.Minute)
	if r, ok := w.Revoke(0, "bob", time.Minute); !ok || !r.QuorumReached {
		t.Fatal("revoke did not reach quorum")
	}
	w.PartitionHostFromManagers(0, 2)
	w.CheckSync(0, "bob", wire.RightUse, time.Minute)
	w.Heal()
	w.RunFor(time.Minute)

	d := w.FlightDump()
	if d == nil || d.Header.Dropped == 0 {
		t.Fatalf("no node wrapped its window: %+v", d)
	}
	i := slices.IndexFunc(d.Records, func(r flight.Record) bool { return r.Node == "h1" })
	if i < 0 || d.Records[i].Seq != 0 || d.Records[i].Type != "clock-rate" {
		t.Fatalf("drifting host h1 does not start with its clock-rate record at Seq 0")
	}
	var b strings.Builder
	if err := d.Write(&b); err != nil {
		t.Fatal(err)
	}
	clitest.CheckGolden(t, "flight_window.golden", b.String())
}
