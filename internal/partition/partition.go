// Package partition injects the congestion of §2.1 into a simulated
// network: frequent short partitions, link by link, from a seeded RNG.
// (Scripted fault windows are internal/scenario's.)
package partition

import (
	"math/rand"
	"time"

	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// Link names one undirected pair for the flap model.
type Link struct {
	A, B wire.NodeID
}

// Links builds the full bipartite link set between two node groups.
func Links(as, bs []wire.NodeID) []Link {
	out := make([]Link, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			out = append(out, Link{A: a, B: b})
		}
	}
	return out
}

// Mesh builds the full link set among one node group.
func Mesh(nodes []wire.NodeID) []Link {
	var out []Link
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			out = append(out, Link{A: nodes[i], B: nodes[j]})
		}
	}
	return out
}

// FlapModel is the congestion model of §2.1: "temporary network partitions
// caused mostly by network congestion can be frequent". Every Tick, each
// link independently goes down with probability DownProb for an
// exponentially distributed outage with the given mean.
type FlapModel struct {
	Links      []Link
	Tick       time.Duration
	DownProb   float64
	MeanOutage time.Duration
	// Seed drives the model's private RNG for reproducibility.
	Seed int64
	// Until stops the model after this much scenario time (0 = run for the
	// lifetime of the scheduler).
	Until time.Duration

	rng     *rand.Rand
	net     *simnet.Network
	stopped bool
	elapsed time.Duration
}

// Start begins injecting flaps. It returns the model so callers can Stop it.
func (f *FlapModel) Start(net *simnet.Network) *FlapModel {
	if f.Tick <= 0 {
		f.Tick = 5 * time.Second
	}
	if f.MeanOutage <= 0 {
		f.MeanOutage = 20 * time.Second
	}
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	f.rng = rand.New(rand.NewSource(seed))
	f.net = net
	f.schedule()
	return f
}

// Stop halts future flaps (outages already in progress still heal).
func (f *FlapModel) Stop() { f.stopped = true }

func (f *FlapModel) schedule() {
	f.net.Scheduler().After(f.Tick, func() {
		if f.stopped {
			return
		}
		f.elapsed += f.Tick
		if f.Until > 0 && f.elapsed > f.Until {
			return
		}
		for _, l := range f.Links {
			if f.rng.Float64() >= f.DownProb {
				continue
			}
			l := l
			f.net.SetLink(l.A, l.B, false)
			outage := time.Duration(f.rng.ExpFloat64() * float64(f.MeanOutage))
			f.net.Scheduler().After(outage, func() { f.net.SetLink(l.A, l.B, true) })
		}
		f.schedule()
	})
}
