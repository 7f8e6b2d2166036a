package simnet

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"wanac/internal/wire"
)

// LatencyModel samples per-message one-way delivery delays. Models must be
// deterministic given the rng stream so simulation runs are reproducible
// from a seed.
type LatencyModel interface {
	Sample(rng *rand.Rand) time.Duration
}

// Fixed delivers every message after exactly D.
type Fixed struct{ D time.Duration }

var _ LatencyModel = Fixed{}

// Sample returns the fixed delay.
func (f Fixed) Sample(*rand.Rand) time.Duration { return f.D }

// Uniform delivers after a delay drawn uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

var _ LatencyModel = Uniform{}

// Sample draws from the uniform interval.
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)+1))
}

// Exponential models wide-area latency as Base plus an exponentially
// distributed tail with the given Mean, truncated at Cap (0 means no cap).
// This gives the heavy right tail typical of congested WAN paths: most
// messages arrive near Base, a few arrive much later.
type Exponential struct {
	Base time.Duration
	Mean time.Duration
	Cap  time.Duration
}

var _ LatencyModel = Exponential{}

// Sample draws Base + Exp(Mean), truncated at Cap.
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	tail := time.Duration(float64(e.Mean) * rng.ExpFloat64())
	d := e.Base + tail
	if e.Cap > 0 && d > e.Cap {
		d = e.Cap
	}
	return d
}

// Scaled multiplies another model's samples by Factor, modelling a degraded
// ("slow but not dead") path: the distribution's shape is preserved while
// its whole scale stretches. Factor below zero clamps samples to zero.
type Scaled struct {
	Model  LatencyModel
	Factor float64
}

var _ LatencyModel = Scaled{}

// Sample draws from the wrapped model and scales the result.
func (s Scaled) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(float64(s.Model.Sample(rng)) * s.Factor)
	if d < 0 {
		d = 0
	}
	return d
}

// LogNormal models latency as exp(N(Mu, Sigma)) scaled to nanoseconds of
// Scale, matching measured Internet RTT distributions more closely than the
// exponential model for some paths.
type LogNormal struct {
	Scale time.Duration // median latency
	Sigma float64       // dispersion; 0 degenerates to Fixed(Scale)
	Cap   time.Duration
}

var _ LatencyModel = LogNormal{}

// Sample draws Scale * exp(Sigma*N(0,1)), truncated at Cap.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	d := time.Duration(float64(l.Scale) * math.Exp(l.Sigma*rng.NormFloat64()))
	if l.Cap > 0 && d > l.Cap {
		d = l.Cap
	}
	if d < 0 {
		d = 0
	}
	return d
}

// LinkLatencyModel samples per-message delays that depend on which directed
// link carries the message, so a network can model geography: different
// region pairs get different distributions, and A→B need not match B→A
// (asymmetric routing). Like LatencyModel, implementations must be
// deterministic given the rng stream.
type LinkLatencyModel interface {
	SampleLink(from, to wire.NodeID, rng *rand.Rand) time.Duration
}

// Matrix is a per-directed-link latency model: every node belongs to a
// class (e.g. its geographic region), and each ordered class pair selects
// its own delay model, so the matrix is asymmetric by construction: eu→us
// and us→eu are independent entries. A node's class is resolved once, when
// the matrix is built: pricing a message — it happens on every simulated
// send — is two small-map reads and an index.
type Matrix struct {
	class map[wire.NodeID]int // node → row/column in links; absent nodes share 0
	links []LatencyModel      // width×width, row = source class; no nil entries
	width int
}

var _ LinkLatencyModel = (*Matrix)(nil)

// NewMatrix builds a matrix from each node's class name and a function
// giving the (non-nil) model of each ordered class pair, called once per
// pair. Nodes absent from class are in class "".
func NewMatrix(class map[wire.NodeID]string, model func(from, to string) LatencyModel) *Matrix {
	names := []string{""}
	m := &Matrix{class: make(map[wire.NodeID]int, len(class))}
	for id, name := range class {
		i := slices.Index(names, name)
		if i < 0 {
			i = len(names)
			names = append(names, name)
		}
		m.class[id] = i
	}
	m.width = len(names)
	for _, from := range names {
		for _, to := range names {
			m.links = append(m.links, model(from, to))
		}
	}
	return m
}

// Link returns the model the matrix uses for messages from → to. The zero
// Matrix prices every link at Fixed(10ms), the network's own default.
func (m *Matrix) Link(from, to wire.NodeID) LatencyModel {
	if m.width == 0 {
		return Fixed{D: 10 * time.Millisecond}
	}
	return m.links[m.class[from]*m.width+m.class[to]]
}

// SampleLink implements LinkLatencyModel.
func (m *Matrix) SampleLink(from, to wire.NodeID, rng *rand.Rand) time.Duration {
	return m.Link(from, to).Sample(rng)
}
