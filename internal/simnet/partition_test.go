package simnet

import (
	"testing"
	"time"

	"wanac/internal/wire"
)

// eventLog collects NetEvents so tests can pin exact observer counts.
type eventLog struct {
	events []NetEvent
}

func (l *eventLog) attach(n *Network) {
	n.Observer = func(ev NetEvent) { l.events = append(l.events, ev) }
}

func (l *eventLog) count(typ string) int {
	c := 0
	for _, ev := range l.events {
		if ev.Type == typ {
			c++
		}
	}
	return c
}

func (l *eventLog) reset() { l.events = nil }

// TestPartitionObserverDedup pins the contract documented on Partition:
// repeated or overlapping calls emit exactly one NetEvent per link that
// actually changed state.
func TestPartitionObserverDedup(t *testing.T) {
	net, _ := newTestNet(Config{})
	for _, id := range []wire.NodeID{"a1", "a2", "b1", "b2", "c"} {
		net.Attach(id, &recorder{})
	}
	log := &eventLog{}
	log.attach(net)

	// Fresh partition: 2×2 cross-group pairs → exactly 4 link-cut events.
	net.Partition([]wire.NodeID{"a1", "a2"}, []wire.NodeID{"b1", "b2"})
	if got := log.count("link-cut"); got != 4 {
		t.Fatalf("fresh partition emitted %d link-cut events, want 4", got)
	}

	// The identical partition again: nothing changed, nothing emitted.
	log.reset()
	net.Partition([]wire.NodeID{"a1", "a2"}, []wire.NodeID{"b1", "b2"})
	if got := len(log.events); got != 0 {
		t.Fatalf("repeated partition emitted %d events, want 0: %+v", got, log.events)
	}

	// Overlapping partition: a1–b1 and a1–b2 are already cut; only a1–c is
	// a real change.
	log.reset()
	net.Partition([]wire.NodeID{"a1"}, []wire.NodeID{"b1", "b2", "c"})
	if got := log.count("link-cut"); got != 1 || len(log.events) != 1 {
		t.Fatalf("overlapping partition emitted %+v, want exactly 1 link-cut", log.events)
	}
	if ev := log.events[0]; ev.A != "a1" || ev.B != "c" {
		t.Fatalf("overlapping partition cut %s-%s, want a1-c", ev.A, ev.B)
	}

	// Heal emits a single event regardless of how many links were down.
	log.reset()
	net.Heal()
	if got := len(log.events); got != 1 || log.events[0].Type != "heal" {
		t.Fatalf("heal emitted %+v, want exactly 1 heal event", log.events)
	}
}

// TestPartitionSharedNodeNoSelfLink: a node listed in more than one group
// must never have its self-link severed (messages to itself would start
// dropping) nor emit a spurious a-a event.
func TestPartitionSharedNodeNoSelfLink(t *testing.T) {
	net, s := newTestNet(Config{})
	recs := map[wire.NodeID]*recorder{}
	for _, id := range []wire.NodeID{"a", "b", "c"} {
		r := &recorder{}
		recs[id] = r
		net.Attach(id, r)
	}
	log := &eventLog{}
	log.attach(net)

	net.Partition([]wire.NodeID{"a", "b"}, []wire.NodeID{"b", "c"})
	// Cross-group pairs are a-b, a-c, b-b (skipped), b-c → 3 cuts.
	if got := log.count("link-cut"); got != 3 {
		t.Fatalf("partition emitted %d link-cut events, want 3: %+v", got, log.events)
	}
	for _, ev := range log.events {
		if ev.A == ev.B {
			t.Fatalf("self-link event emitted: %+v", ev)
		}
	}
	if net.cut[linkKey{"b", "b"}] {
		t.Fatal("shared node's self-link was severed")
	}
	net.Send("b", "b", wire.Heartbeat{Nonce: 1})
	s.Run(0)
	if len(recs["b"].got) != 1 {
		t.Fatal("shared node cannot message itself after partition")
	}
}

// TestPartitionOneWayEvents pins event counts and traffic shape for
// asymmetric partitions: only the from→to direction is severed, repeated
// calls are silent, and RestoreOneWay undoes exactly what was cut.
func TestPartitionOneWayEvents(t *testing.T) {
	net, s := newTestNet(Config{})
	recs := map[wire.NodeID]*recorder{}
	for _, id := range []wire.NodeID{"h", "m1", "m2"} {
		r := &recorder{}
		recs[id] = r
		net.Attach(id, r)
	}
	log := &eventLog{}
	log.attach(net)

	net.PartitionOneWay([]wire.NodeID{"m1", "m2"}, []wire.NodeID{"h"})
	if got := log.count("link-cut"); got != 2 || len(log.events) != 2 {
		t.Fatalf("one-way partition emitted %+v, want exactly 2 link-cut", log.events)
	}
	for _, ev := range log.events {
		if ev.Note != "one-way" {
			t.Fatalf("one-way cut missing note: %+v", ev)
		}
	}

	// Repeat: silent.
	log.reset()
	net.PartitionOneWay([]wire.NodeID{"m1", "m2"}, []wire.NodeID{"h"})
	if len(log.events) != 0 {
		t.Fatalf("repeated one-way partition emitted %+v, want none", log.events)
	}

	// Host can still reach managers; managers cannot reach the host.
	net.Send("h", "m1", wire.Heartbeat{Nonce: 1})
	net.Send("m1", "h", wire.Heartbeat{Nonce: 2})
	s.Run(0)
	if len(recs["m1"].got) != 1 {
		t.Error("h→m1 should flow (only the reverse direction is cut)")
	}
	if len(recs["h"].got) != 0 {
		t.Error("m1→h delivered through one-way cut")
	}

	log.reset()
	net.RestoreOneWay([]wire.NodeID{"m1", "m2"}, []wire.NodeID{"h"})
	if got := log.count("link-restored"); got != 2 || len(log.events) != 2 {
		t.Fatalf("restore emitted %+v, want exactly 2 link-restored", log.events)
	}
	net.Send("m1", "h", wire.Heartbeat{Nonce: 3})
	s.Run(0)
	if len(recs["h"].got) != 1 {
		t.Error("m1→h lost after restore")
	}
}

// TestSetLinkLatencyEvents: installing and clearing per-link delay
// overrides must be observable exactly once per actual change (so gray
// failures land on flight timelines without flooding them).
func TestSetLinkLatencyEvents(t *testing.T) {
	net, _ := newTestNet(Config{})
	net.Attach("a", &recorder{})
	net.Attach("b", &recorder{})
	log := &eventLog{}
	log.attach(net)

	net.SetLinkLatency("a", "b", Fixed{D: 200 * time.Millisecond})
	if got := log.count("link-latency-set"); got != 1 {
		t.Fatalf("set emitted %d link-latency-set, want 1", got)
	}
	// Replacing the model on an already-degraded link is not a new event.
	net.SetLinkLatency("a", "b", Fixed{D: 300 * time.Millisecond})
	if got := log.count("link-latency-set"); got != 1 {
		t.Fatalf("replace emitted extra events: %+v", log.events)
	}

	log.reset()
	net.SetLinkLatency("a", "b", nil)
	if got := log.count("link-latency-cleared"); got != 1 || len(log.events) != 1 {
		t.Fatalf("clear emitted %+v, want exactly 1 link-latency-cleared", log.events)
	}
	// Clearing an absent override is silent.
	net.SetLinkLatency("a", "b", nil)
	if got := log.count("link-latency-cleared"); got != 1 {
		t.Fatalf("double clear emitted extra events: %+v", log.events)
	}
}
