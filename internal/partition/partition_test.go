package partition

import (
	"testing"
	"time"

	"wanac/internal/simnet"
	"wanac/internal/wire"
)

func newNet() (*simnet.Network, *simnet.Scheduler) {
	s := simnet.NewScheduler()
	n := simnet.New(s, simnet.Config{})
	for _, id := range []wire.NodeID{"a", "b", "c", "d"} {
		n.Attach(id, simnet.HandlerFunc(func(wire.NodeID, wire.Message) {}))
	}
	return n, s
}

func TestLinksAndMesh(t *testing.T) {
	ls := Links([]wire.NodeID{"a", "b"}, []wire.NodeID{"x", "y", "z"})
	if len(ls) != 6 {
		t.Errorf("Links = %d pairs, want 6", len(ls))
	}
	ms := Mesh([]wire.NodeID{"a", "b", "c", "d"})
	if len(ms) != 6 { // C(4,2)
		t.Errorf("Mesh = %d pairs, want 6", len(ms))
	}
	seen := map[Link]bool{}
	for _, l := range ms {
		if l.A == l.B {
			t.Errorf("self link %v", l)
		}
		if seen[l] {
			t.Errorf("duplicate link %v", l)
		}
		seen[l] = true
	}
}

func TestFlapModelFlapsAndHeals(t *testing.T) {
	net, sched := newNet()
	f := (&FlapModel{
		Links:      Links([]wire.NodeID{"a"}, []wire.NodeID{"b", "c", "d"}),
		Tick:       time.Second,
		DownProb:   0.5,
		MeanOutage: 3 * time.Second,
		Seed:       3,
	}).Start(net)

	downObserved := false
	for i := 0; i < 120; i++ {
		sched.RunFor(time.Second)
		if !net.Linked("a", "b") || !net.Linked("a", "c") || !net.Linked("a", "d") {
			downObserved = true
		}
	}
	if !downObserved {
		t.Fatal("flap model never cut a link in 2 minutes at p=0.5")
	}

	f.Stop()
	// After stopping, outages heal and no new cuts appear.
	sched.RunFor(time.Minute)
	for _, peer := range []wire.NodeID{"b", "c", "d"} {
		if !net.Linked("a", peer) {
			t.Errorf("link a-%s still down after Stop + heal window", peer)
		}
	}
}

func TestFlapModelUntil(t *testing.T) {
	net, sched := newNet()
	(&FlapModel{
		Links:    Links([]wire.NodeID{"a"}, []wire.NodeID{"b"}),
		Tick:     time.Second,
		DownProb: 1.0,
		// Outages of ~1ms so the link is almost always up between ticks.
		MeanOutage: time.Millisecond,
		Until:      10 * time.Second,
		Seed:       5,
	}).Start(net)
	sched.RunFor(30 * time.Second)
	before := sched.Steps()
	sched.RunFor(10 * time.Minute)
	// The model stopped at t=10s: no further events should be scheduled
	// besides (long finished) heals.
	if after := sched.Steps(); after != before {
		t.Errorf("flap model kept scheduling after Until: %d -> %d steps", before, after)
	}
}

func TestModelDefaults(t *testing.T) {
	net, _ := newNet()
	f := (&FlapModel{Links: Links([]wire.NodeID{"a"}, []wire.NodeID{"b"})}).Start(net)
	if f.Tick != 5*time.Second || f.MeanOutage != 20*time.Second {
		t.Errorf("flap defaults = %v/%v", f.Tick, f.MeanOutage)
	}
}
