package simnet

import (
	"math/rand"
	"testing"
	"time"

	"wanac/internal/wire"
)

// regionMatrix builds the matrix used across these tests: two regions with
// asymmetric directions and a distinct intra-region model.
func regionMatrix() *Matrix {
	region := map[wire.NodeID]string{
		"h-us": "us", "m-us": "us",
		"h-eu": "eu", "m-eu": "eu",
	}
	models := map[[2]string]LatencyModel{
		{"us", "eu"}: Fixed{D: 44 * time.Millisecond},
		{"eu", "us"}: Fixed{D: 36 * time.Millisecond},
		{"us", "us"}: Fixed{D: 2 * time.Millisecond},
	}
	return NewMatrix(region, func(from, to string) LatencyModel {
		if m, ok := models[[2]string{from, to}]; ok {
			return m
		}
		return Fixed{D: 9 * time.Millisecond}
	})
}

// TestLatencyModelDeterminism: every model must produce the identical
// sample stream from the same seed — the property every replayable
// scenario depends on.
func TestLatencyModelDeterminism(t *testing.T) {
	models := []struct {
		name string
		m    LatencyModel
	}{
		{"fixed", Fixed{D: 10 * time.Millisecond}},
		{"uniform", Uniform{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond}},
		{"exponential", Exponential{Base: 20 * time.Millisecond, Mean: 30 * time.Millisecond, Cap: time.Second}},
		{"lognormal", LogNormal{Scale: 40 * time.Millisecond, Sigma: 0.3, Cap: time.Second}},
		{"scaled", Scaled{Model: LogNormal{Scale: 40 * time.Millisecond, Sigma: 0.3}, Factor: 25}},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			a := rand.New(rand.NewSource(42))
			b := rand.New(rand.NewSource(42))
			for i := 0; i < 500; i++ {
				da, db := tc.m.Sample(a), tc.m.Sample(b)
				if da != db {
					t.Fatalf("sample %d diverged: %v vs %v", i, da, db)
				}
			}
		})
	}

	t.Run("matrix", func(t *testing.T) {
		m := regionMatrix()
		a := rand.New(rand.NewSource(42))
		b := rand.New(rand.NewSource(42))
		links := [][2]wire.NodeID{{"h-us", "m-eu"}, {"m-eu", "h-us"}, {"h-us", "m-us"}}
		for i := 0; i < 500; i++ {
			l := links[i%len(links)]
			da := m.SampleLink(l[0], l[1], a)
			db := m.SampleLink(l[0], l[1], b)
			if da != db {
				t.Fatalf("sample %d on %v diverged: %v vs %v", i, l, da, db)
			}
		}
	})
}

// TestLatencyModelBounds pins each model's distribution envelope with a
// table of (model, min, max) rows.
func TestLatencyModelBounds(t *testing.T) {
	cases := []struct {
		name     string
		m        LatencyModel
		min, max time.Duration
	}{
		{"fixed", Fixed{D: 10 * time.Millisecond}, 10 * time.Millisecond, 10 * time.Millisecond},
		{"uniform", Uniform{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond}, 5 * time.Millisecond, 80 * time.Millisecond},
		{"uniform-degenerate", Uniform{Min: 7 * time.Millisecond, Max: 7 * time.Millisecond}, 7 * time.Millisecond, 7 * time.Millisecond},
		{"exponential", Exponential{Base: 20 * time.Millisecond, Mean: 30 * time.Millisecond, Cap: 200 * time.Millisecond}, 20 * time.Millisecond, 200 * time.Millisecond},
		{"lognormal", LogNormal{Scale: 40 * time.Millisecond, Sigma: 0.4, Cap: 300 * time.Millisecond}, 0, 300 * time.Millisecond},
		{"scaled-fixed", Scaled{Model: Fixed{D: 4 * time.Millisecond}, Factor: 25}, 100 * time.Millisecond, 100 * time.Millisecond},
		{"scaled-uniform", Scaled{Model: Uniform{Min: 2 * time.Millisecond, Max: 4 * time.Millisecond}, Factor: 10}, 20 * time.Millisecond, 40 * time.Millisecond},
		{"scaled-negative", Scaled{Model: Fixed{D: time.Millisecond}, Factor: -3}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				d := tc.m.Sample(rng)
				if d < tc.min || d > tc.max {
					t.Fatalf("sample %v outside [%v,%v]", d, tc.min, tc.max)
				}
			}
		})
	}
}

// TestMatrixDirectionality: the matrix must be asymmetric per ordered pair
// (A→B ≠ B→A when configured so) and resolve classes and fallbacks
// per the table.
func TestMatrixDirectionality(t *testing.T) {
	m := regionMatrix()
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name     string
		from, to wire.NodeID
		want     time.Duration
	}{
		{"us-to-eu", "h-us", "m-eu", 44 * time.Millisecond},
		{"eu-to-us", "m-eu", "h-us", 36 * time.Millisecond},
		{"intra-us", "h-us", "m-us", 2 * time.Millisecond},
		{"intra-eu-falls-back", "h-eu", "m-eu", 9 * time.Millisecond},
		{"unknown-node-falls-back", "h-us", "stranger", 9 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if d := m.SampleLink(tc.from, tc.to, rng); d != tc.want {
				t.Fatalf("SampleLink(%s,%s) = %v, want %v", tc.from, tc.to, d, tc.want)
			}
		})
	}
	ab := m.SampleLink("h-us", "m-eu", rng)
	ba := m.SampleLink("m-eu", "h-us", rng)
	if ab == ba {
		t.Fatalf("matrix symmetric: %v both directions", ab)
	}
}

// TestMatrixNilDefaults: a zero-value matrix must still produce the
// network's documented 10ms default rather than panic.
func TestMatrixNilDefaults(t *testing.T) {
	m := &Matrix{}
	rng := rand.New(rand.NewSource(1))
	if d := m.SampleLink("a", "b", rng); d != 10*time.Millisecond {
		t.Fatalf("zero-value matrix sample = %v, want 10ms", d)
	}
	if mod := m.Link("a", "b"); mod == nil {
		t.Fatal("Link returned nil model")
	}
}

// TestNetworkUsesMatrixAndOverride: end-to-end through Network.Send, the
// delivery delay must come from (1) a SetLinkLatency override when
// installed, (2) the configured matrix otherwise, per direction.
func TestNetworkUsesMatrixAndOverride(t *testing.T) {
	m := regionMatrix()
	net, s := newTestNet(Config{LinkLatency: m})
	var got []wire.Message
	net.Attach("h-us", HandlerFunc(func(_ wire.NodeID, msg wire.Message) { got = append(got, msg) }))
	net.Attach("m-eu", HandlerFunc(func(_ wire.NodeID, msg wire.Message) { got = append(got, msg) }))

	start := s.Now()
	net.Send("h-us", "m-eu", wire.Heartbeat{Nonce: 1})
	s.Run(0)
	if d := s.Now().Sub(start); d != 44*time.Millisecond {
		t.Fatalf("us→eu delivery took %v, want 44ms", d)
	}
	start = s.Now()
	net.Send("m-eu", "h-us", wire.Heartbeat{Nonce: 2})
	s.Run(0)
	if d := s.Now().Sub(start); d != 36*time.Millisecond {
		t.Fatalf("eu→us delivery took %v, want 36ms", d)
	}

	// A slow-but-not-dead override beats the matrix in its direction only.
	net.SetLinkLatency("h-us", "m-eu", Scaled{Model: Fixed{D: 44 * time.Millisecond}, Factor: 10})
	start = s.Now()
	net.Send("h-us", "m-eu", wire.Heartbeat{Nonce: 3})
	s.Run(0)
	if d := s.Now().Sub(start); d != 440*time.Millisecond {
		t.Fatalf("degraded us→eu delivery took %v, want 440ms", d)
	}
	start = s.Now()
	net.Send("m-eu", "h-us", wire.Heartbeat{Nonce: 4})
	s.Run(0)
	if d := s.Now().Sub(start); d != 36*time.Millisecond {
		t.Fatalf("reverse direction affected by override: %v", d)
	}

	// Clearing the override falls back to the matrix.
	net.SetLinkLatency("h-us", "m-eu", nil)
	start = s.Now()
	net.Send("h-us", "m-eu", wire.Heartbeat{Nonce: 5})
	s.Run(0)
	if d := s.Now().Sub(start); d != 44*time.Millisecond {
		t.Fatalf("post-clear us→eu delivery took %v, want 44ms", d)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d messages, want 5", len(got))
	}
}
