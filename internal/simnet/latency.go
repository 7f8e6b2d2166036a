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

// Matrix is a per-directed-link latency model, so a network can model
// geography: every node belongs to a class (e.g. its geographic region), and
// each ordered class pair selects its own delay model, so the matrix is
// asymmetric by construction: eu→us and us→eu are independent entries. A
// network resolves each node's class once, with its handle (Network.Node):
// pricing a message, which every simulated send does, is an index.
type Matrix struct {
	class map[wire.NodeID]int // node → row/column in links; absent nodes share 0
	links []LatencyModel      // width×width, row = source class; no nil entries
	width int
}

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
func (m *Matrix) Link(from, to wire.NodeID) LatencyModel { return m.model(m.class[from], m.class[to]) }

// model returns the model of the ordered pair of classes from → to.
func (m *Matrix) model(from, to int) LatencyModel {
	if m.width == 0 {
		return Fixed{D: 10 * time.Millisecond}
	}
	return m.links[from*m.width+to]
}
