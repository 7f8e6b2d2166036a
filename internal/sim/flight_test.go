package sim

import (
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// TestFlightRingMatchesTraceExactly scripts a scenario (grants, checks, a
// revocation, a partition) and proves the flight rings are an exact record
// of protocol history: every protocol/quorum record in a node's ring
// corresponds 1:1, in order and field for field, to the trace events that
// node emitted other than cache hits, and no ring holds a cache hit. The
// recorder is a tee off the tracer, so any divergence means the tee dropped,
// reordered, or mistranslated an event.
func TestFlightRingMatchesTraceExactly(t *testing.T) {
	w, err := Build(Config{
		Managers: 3, Hosts: 2,
		Policy: core.Policy{
			CheckQuorum: 2, Te: 30 * time.Second,
			QueryTimeout: time.Second, MaxAttempts: 2,
		},
		Te:         30 * time.Second,
		Users:      []wire.UserID{"alice"},
		FlightRing: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Script: cached and quorum checks, an update reaching quorum, a
	// partition forcing timeouts, a denied check after revocation.
	if d, ok := w.CheckSync(0, "alice", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("initial check failed")
	}
	w.CheckSync(0, "alice", wire.RightUse, time.Minute) // cache hit
	if r, ok := w.Grant(0, "bob", time.Minute); !ok || !r.QuorumReached {
		t.Fatal("grant did not reach quorum")
	}
	if d, ok := w.CheckSync(1, "bob", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatal("check for bob failed")
	}
	if r, ok := w.Revoke(0, "bob", time.Minute); !ok || !r.QuorumReached {
		t.Fatal("revoke did not reach quorum")
	}
	w.PartitionHostFromManagers(0, 0, 1, 2)
	w.CheckSync(0, "carol", wire.RightUse, 30*time.Second) // times out behind the cut
	w.Heal()
	w.RunFor(time.Minute)

	events := w.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("no trace events collected")
	}
	if w.Tracer.Count(trace.EventCacheHit) == 0 {
		t.Fatal("the script made no cache hit")
	}
	byNode := make(map[wire.NodeID][]trace.Event)
	for _, e := range events {
		if e.Type != trace.EventCacheHit {
			byNode[e.Node] = append(byNode[e.Node], e)
		}
	}

	for node, want := range byNode {
		rec := w.Flights[node]
		if rec == nil {
			t.Fatalf("no flight recorder for node %s", node)
		}
		if rec.Total() > 4096 {
			t.Fatalf("node %s overflowed the ring (%d records): test no longer exact", node, rec.Total())
		}
		var got []flight.Record
		for _, r := range rec.Snapshot() {
			if r.Kind == flight.KindProtocol || r.Kind == flight.KindQuorum {
				got = append(got, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %s: ring has %d protocol/quorum records, tracer emitted %d events",
				node, len(got), len(want))
		}
		for i, e := range want {
			r := got[i]
			if r.Type != e.Type.String() || r.App != string(e.App) || r.User != string(e.User) ||
				r.Trace != e.Trace || r.Origin != string(e.Seq.Origin) || r.Counter != e.Seq.Counter ||
				r.Note != e.Note || !r.T.Equal(e.Time) {
				t.Fatalf("node %s record %d diverges from trace event:\n ring:  %+v\n trace: %+v", node, i, r, e)
			}
		}
	}

	// The quorum decisions must be classified KindQuorum in the rings; a
	// cache hit is in none.
	quorums := 0
	for node, rec := range w.Flights {
		for _, r := range rec.Snapshot() {
			if r.Kind == flight.KindQuorum {
				quorums++
			}
			if r.Type == trace.EventCacheHit.String() {
				t.Fatalf("node %s ring holds a cache hit: %+v", node, r)
			}
		}
	}
	if quorums == 0 {
		t.Error("no KindQuorum records despite update quorums and quorum grants")
	}

	// The partition and heal must appear on the net pseudo-node.
	netRec := w.Flights["net"]
	if netRec == nil {
		t.Fatal("no net pseudo-node recorder")
	}
	var cuts, heals int
	for _, r := range netRec.Snapshot() {
		switch r.Type {
		case "link-cut":
			cuts++
		case "heal":
			heals++
		}
	}
	if cuts != 3 || heals != 1 {
		t.Errorf("net ring: %d link-cut and %d heal records, want 3 and 1", cuts, heals)
	}
}

// TestFlightDumpMergesAllNodes checks World.FlightDump covers every node
// and round-trips through the JSONL dump format.
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
}

// TestFlightDisabled checks the recorder is absent under NoTrace and when
// FlightRing is zero.
func TestFlightDisabled(t *testing.T) {
	for _, cfg := range []Config{
		{Managers: 1, Policy: core.Policy{CheckQuorum: 1}},
		{Managers: 1, Policy: core.Policy{CheckQuorum: 1}, NoTrace: true, FlightRing: 64},
	} {
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.Flights != nil || w.FlightDump() != nil {
			t.Errorf("flight recorder attached for cfg %+v", cfg)
		}
	}
}
