package scenario

import (
	"fmt"
	"time"

	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// Fault is one scheduled failure injection. Implementations schedule their
// begin/end callbacks on the runtime's scheduler; the runtime tracks open
// fault windows so availability probes only arm once the network is quiet.
type Fault interface {
	// Describe names the fault for scenario listings.
	Describe() string
	// Window returns when the fault starts and how long its (first) window
	// lasts, for validation against the scenario horizon.
	Window() (at, dur time.Duration)
	// schedule arms the fault's callbacks.
	schedule(r *runtime)
}

// Role selects which of a region's nodes a fault touches.
type Role int

// Role values.
const (
	All Role = iota
	Managers
	Hosts
)

func (ro Role) String() string {
	switch ro {
	case Managers:
		return "managers"
	case Hosts:
		return "hosts"
	default:
		return "all"
	}
}

// Nodes selects nodes by region and role for directional faults.
type Nodes struct {
	Region string
	Role   Role
}

func (s Nodes) ids(t Topology) []wire.NodeID {
	switch s.Role {
	case Managers:
		return t.ManagersIn(s.Region)
	case Hosts:
		return t.HostsIn(s.Region)
	default:
		return t.NodesIn(s.Region)
	}
}

func (s Nodes) String() string {
	if s.Role == All {
		return s.Region
	}
	return s.Region + "/" + s.Role.String()
}

// RegionPartition isolates every node in Region from the rest of the world
// for the window [At, At+For): the classic full partition, region-shaped.
type RegionPartition struct {
	Region string
	At     time.Duration
	For    time.Duration
}

// Describe implements Fault.
func (f RegionPartition) Describe() string {
	return fmt.Sprintf("partition %s @%s for %s", f.Region, f.At, f.For)
}

// Window implements Fault.
func (f RegionPartition) Window() (time.Duration, time.Duration) { return f.At, f.For }

func (f RegionPartition) schedule(r *runtime) {
	inside := r.sc.Topology.NodesIn(f.Region)
	outside := excluding(r.sc.Topology.AllNodes(), inside)
	r.W.Sched.After(f.At, func() {
		r.beginFault(f.Describe())
		r.W.Net.Partition(inside, outside)
	})
	r.W.Sched.After(f.At+f.For, func() {
		// Restore pairwise (not Heal) so overlapping faults stay cut.
		for _, a := range inside {
			for _, b := range outside {
				r.W.Net.SetLink(a, b, true)
			}
		}
		r.endFault()
	})
}

// OneWayPartition severs only the From→To direction between two node
// selections: From's messages vanish while To's still arrive — the
// asymmetric-routing gray failure. A host behind one (as To→From's target)
// can still send queries it will never hear answered.
type OneWayPartition struct {
	From, To Nodes
	At       time.Duration
	For      time.Duration
}

// Describe implements Fault.
func (f OneWayPartition) Describe() string {
	return fmt.Sprintf("oneway %s→%s cut @%s for %s", f.From, f.To, f.At, f.For)
}

// Window implements Fault.
func (f OneWayPartition) Window() (time.Duration, time.Duration) { return f.At, f.For }

func (f OneWayPartition) schedule(r *runtime) {
	from := f.From.ids(r.sc.Topology)
	to := f.To.ids(r.sc.Topology)
	r.W.Sched.After(f.At, func() {
		r.beginFault(f.Describe())
		r.W.Net.PartitionOneWay(from, to)
	})
	r.W.Sched.After(f.At+f.For, func() {
		r.W.Net.RestoreOneWay(from, to)
		r.endFault()
	})
}

// SlowLinks stretches every link between two regions by Factor (both
// directions) for the window: slow-but-not-dead, the gray failure that
// times out queries without tripping any liveness detector.
type SlowLinks struct {
	A, B   string
	Factor float64
	At     time.Duration
	For    time.Duration
}

// Describe implements Fault.
func (f SlowLinks) Describe() string {
	return fmt.Sprintf("slow %s↔%s ×%.3g @%s for %s", f.A, f.B, f.Factor, f.At, f.For)
}

// Window implements Fault.
func (f SlowLinks) Window() (time.Duration, time.Duration) { return f.At, f.For }

func (f SlowLinks) schedule(r *runtime) {
	as := r.sc.Topology.NodesIn(f.A)
	bs := r.sc.Topology.NodesIn(f.B)
	matrix := r.matrix
	r.W.Sched.After(f.At, func() {
		r.beginFault(f.Describe())
		forEachPair(as, bs, func(x, y wire.NodeID) {
			// Stretch the link's own geographic model so the degraded
			// distribution keeps its shape.
			r.W.Net.SetLinkLatency(x, y, simnet.Scaled{Model: matrix.Link(x, y), Factor: f.Factor})
		})
	})
	r.W.Sched.After(f.At+f.For, func() {
		forEachPair(as, bs, func(x, y wire.NodeID) {
			r.W.Net.SetLinkLatency(x, y, nil)
		})
		r.endFault()
	})
}

// CongestionBurst repeatedly saturates the links between two regions:
// each burst raises loss to Loss and stretches latency by Factor for For,
// then clears; bursts recur every Every, Repeat times in total.
type CongestionBurst struct {
	A, B   string
	Loss   float64
	Factor float64
	At     time.Duration
	For    time.Duration
	Repeat int
	Every  time.Duration
}

// Describe implements Fault.
func (f CongestionBurst) Describe() string {
	return fmt.Sprintf("congestion %s↔%s loss=%.2f ×%.3g @%s ×%d every %s",
		f.A, f.B, f.Loss, f.Factor, f.At, f.repeats(), f.Every)
}

func (f CongestionBurst) repeats() int {
	if f.Repeat < 1 {
		return 1
	}
	return f.Repeat
}

// Window implements Fault. The window spans the first burst; later bursts
// are validated via Every×Repeat by Scenario.validate.
func (f CongestionBurst) Window() (time.Duration, time.Duration) {
	last := f.At + time.Duration(f.repeats()-1)*f.Every
	return f.At, last + f.For - f.At
}

func (f CongestionBurst) schedule(r *runtime) {
	as := r.sc.Topology.NodesIn(f.A)
	bs := r.sc.Topology.NodesIn(f.B)
	matrix := r.matrix
	factor := f.Factor
	if factor <= 0 {
		factor = 1
	}
	for i := 0; i < f.repeats(); i++ {
		start := f.At + time.Duration(i)*f.Every
		r.W.Sched.After(start, func() {
			r.beginFault(f.Describe())
			forEachPair(as, bs, func(x, y wire.NodeID) {
				r.W.Net.SetLinkLoss(x, y, f.Loss)
				r.W.Net.SetLinkLatency(x, y, simnet.Scaled{Model: matrix.Link(x, y), Factor: factor})
			})
		})
		r.W.Sched.After(start+f.For, func() {
			forEachPair(as, bs, func(x, y wire.NodeID) {
				r.W.Net.SetLinkLoss(x, y, -1)
				r.W.Net.SetLinkLatency(x, y, nil)
			})
			r.endFault()
		})
	}
}

// RegionOutage blacks out every manager in Region at the network level
// (correlated whole-region failure): their inbound and outbound traffic is
// dropped for the window, but their process state survives — deliberately a
// network blackout rather than a crash-recover, so the sequencing oracle's
// no-counter-replay assumption holds.
type RegionOutage struct {
	Region string
	At     time.Duration
	For    time.Duration
}

// Describe implements Fault.
func (f RegionOutage) Describe() string {
	return fmt.Sprintf("outage %s managers @%s for %s", f.Region, f.At, f.For)
}

// Window implements Fault.
func (f RegionOutage) Window() (time.Duration, time.Duration) { return f.At, f.For }

func (f RegionOutage) schedule(r *runtime) {
	mgrs := r.sc.Topology.ManagersIn(f.Region)
	r.W.Sched.After(f.At, func() {
		r.beginFault(f.Describe())
		for _, m := range mgrs {
			r.W.Net.Crash(m)
		}
	})
	r.W.Sched.After(f.At+f.For, func() {
		for _, m := range mgrs {
			r.W.Net.Recover(m)
		}
		r.endFault()
	})
}

// excluding returns all of set minus the members of drop.
func excluding(set, drop []wire.NodeID) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(set))
	for _, id := range set {
		skip := false
		for _, d := range drop {
			if id == d {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, id)
		}
	}
	return out
}

// forEachPair applies fn to both directions of every cross pair (a,b).
func forEachPair(as, bs []wire.NodeID, fn func(x, y wire.NodeID)) {
	for _, a := range as {
		for _, b := range bs {
			if a == b {
				continue
			}
			fn(a, b)
			fn(b, a)
		}
	}
}
