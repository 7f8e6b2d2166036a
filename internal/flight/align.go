package flight

// Clock alignment. Each node stamps records with its own clock, and the
// paper's model (§2.1) only bounds drift — it does not synchronize clocks —
// so a merged dump's raw timestamps can be seconds apart for causally
// adjacent events. The analyzer recovers a common frame from the dump
// itself:
//
//  1. Anchor pairs. A query-sent record on a host and the query-served
//     record with the same trace ID on a manager are the two ends of one
//     message, so their true times differ only by network latency
//     (milliseconds, against drift of seconds). Update records pair the
//     same way: update-issued on the origin manager matches update-applied
//     for the same origin/counter on each peer.
//  2. Per-node fit. Starting from a reference node (the one with the most
//     anchors — in practice a manager, whose clock the simulator keeps
//     honest), nodes are aligned one at a time: each anchor contributes an
//     observation (local time, reference time); two or more observations
//     spread over ≥5s fit an offset+rate line (handling *drifting* clocks,
//     not just skewed ones), fewer fall back to the median offset.
//  3. Fallback. A node sharing no anchors with the aligned component keeps
//     its clock as-is (identity mapping, Anchors=0) — the conservative
//     per-node estimate when nothing ties it to the rest.

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"
)

// Alignment holds the per-node clock corrections for one merged dump.
type Alignment struct {
	// Reference names the node whose clock defines the common frame.
	Reference string
	// Epoch anchors the float-second coordinates used by the fits.
	Epoch time.Time
	// Nodes maps every dump node to its clock correction.
	Nodes map[string]NodeAlign
}

// NodeAlign maps one node's local clock onto the reference frame:
// ref = Scale·(local − epoch) + Shift, in seconds relative to the epoch.
type NodeAlign struct {
	// Scale is d(reference)/d(local): >1 means the local clock runs slow.
	Scale float64
	// Shift is the additive correction in seconds (epoch-relative).
	Shift float64
	// Anchors counts the matched pairs behind the fit; 0 means identity
	// fallback.
	Anchors int
}

// Adjust maps a node-local time onto the reference frame.
func (a *Alignment) Adjust(node string, t time.Time) time.Time {
	na, ok := a.Nodes[node]
	if !ok || (na.Scale == 1 && na.Shift == 0) {
		return t
	}
	x := t.Sub(a.Epoch).Seconds()
	y := na.Scale*x + na.Shift
	return a.Epoch.Add(time.Duration(y * float64(time.Second)))
}

// anchorObs is one matched pair: an event at a's clock ta corresponds to an
// event at b's clock tb, up to one network latency.
type anchorObs struct {
	ta, tb time.Time
}

const (
	// rateFitSpread is the minimum local-time spread before fitting a rate:
	// with anchors closer together, latency noise dominates the slope.
	rateFitSpread = 5 * time.Second
	// rate fits outside [minScale,maxScale] are rejected as noise.
	minScale = 0.25
	maxScale = 4.0
)

// Align estimates per-node clock corrections for a merged dump.
func Align(d *Dump) *Alignment {
	byNode := make(map[string][]Record)
	var nodes []string
	var epoch time.Time
	first := true
	for _, r := range d.Records {
		if _, ok := byNode[r.Node]; !ok {
			nodes = append(nodes, r.Node)
		}
		byNode[r.Node] = append(byNode[r.Node], r)
		if first || r.T.Before(epoch) {
			epoch = r.T
			first = false
		}
	}
	for _, n := range d.Header.Nodes {
		if _, ok := byNode[n]; !ok {
			byNode[n] = nil
			nodes = append(nodes, n)
		}
	}
	sort.Strings(nodes)

	// Collect the first occurrence of each anchor event per (key, node).
	type firstSeen map[string]map[string]time.Time // key -> node -> time
	record := func(m firstSeen, key, node string, t time.Time) {
		per, ok := m[key]
		if !ok {
			per = make(map[string]time.Time)
			m[key] = per
		}
		if old, ok := per[node]; !ok || t.Before(old) {
			per[node] = t
		}
	}
	sent, served := firstSeen{}, firstSeen{}
	issued, applied := firstSeen{}, firstSeen{}
	for _, r := range d.Records {
		switch r.Type {
		case "query-sent":
			if r.Trace != 0 {
				record(sent, traceKey(r.Trace), r.Node, r.T)
			}
		case "query-served":
			if r.Trace != 0 {
				record(served, traceKey(r.Trace), r.Node, r.T)
			}
		case "update-issued":
			if r.Origin != "" {
				record(issued, updateKey(r.Origin, r.Counter), r.Node, r.T)
			}
		case "update-applied":
			if r.Origin != "" {
				record(applied, updateKey(r.Origin, r.Counter), r.Node, r.T)
			}
		}
	}

	// Build the anchor graph: obs[a][b] lists matched pairs between a and b.
	obs := make(map[string]map[string][]anchorObs)
	add := func(a string, ta time.Time, b string, tb time.Time) {
		if a == b {
			return
		}
		if obs[a] == nil {
			obs[a] = make(map[string][]anchorObs)
		}
		if obs[b] == nil {
			obs[b] = make(map[string][]anchorObs)
		}
		obs[a][b] = append(obs[a][b], anchorObs{ta: ta, tb: tb})
		obs[b][a] = append(obs[b][a], anchorObs{ta: tb, tb: ta})
	}
	pairUp := func(left, right firstSeen) {
		for key, l := range left {
			r, ok := right[key]
			if !ok {
				continue
			}
			for ln, lt := range l {
				for rn, rt := range r {
					add(ln, lt, rn, rt)
				}
			}
		}
	}
	pairUp(sent, served)
	pairUp(issued, applied)

	anchorCount := func(n string) int {
		total := 0
		for _, l := range obs[n] {
			total += len(l)
		}
		return total
	}

	// Reference: most anchors, ties broken by name, so the choice is
	// deterministic for goldens and replays.
	ref := ""
	for _, n := range nodes {
		if ref == "" || anchorCount(n) > anchorCount(ref) {
			ref = n
		}
	}

	al := &Alignment{Reference: ref, Epoch: epoch, Nodes: make(map[string]NodeAlign, len(nodes))}
	if ref == "" {
		return al
	}
	al.Nodes[ref] = NodeAlign{Scale: 1, Anchors: anchorCount(ref)}

	// Greedy BFS over the anchor graph: repeatedly align the unaligned node
	// with the most observations into the aligned set.
	for {
		best, bestObs := "", 0
		for _, n := range nodes {
			if _, done := al.Nodes[n]; done {
				continue
			}
			count := 0
			for peer, l := range obs[n] {
				if _, done := al.Nodes[peer]; done {
					count += len(l)
				}
			}
			if count > bestObs || (count == bestObs && count > 0 && (best == "" || n < best)) {
				best, bestObs = n, count
			}
		}
		if best == "" || bestObs == 0 {
			break
		}
		// Each anchor to an already-aligned peer yields (local, reference)
		// after pushing the peer's time through its own correction.
		var xs, ys []float64
		for peer, l := range obs[best] {
			if _, done := al.Nodes[peer]; !done {
				continue
			}
			for _, o := range l {
				xs = append(xs, o.ta.Sub(epoch).Seconds())
				ys = append(ys, al.Adjust(peer, o.tb).Sub(epoch).Seconds())
			}
		}
		al.Nodes[best] = fit(xs, ys)
	}

	// Anything left shares no anchors with the aligned component: keep its
	// clock as recorded.
	for _, n := range nodes {
		if _, done := al.Nodes[n]; !done {
			al.Nodes[n] = NodeAlign{Scale: 1}
		}
	}
	return al
}

// fit derives a NodeAlign from (local, reference) observation pairs. The
// pairs arrive in map order; fit sorts them in place and sums them in that
// order, so the fit, and the timeline built on it, is the same on every run.
func fit(xs, ys []float64) NodeAlign {
	n := len(xs)
	if n == 0 {
		return NodeAlign{Scale: 1}
	}
	pairs := make([][2]float64, n)
	for i := range pairs {
		pairs[i] = [2]float64{xs[i], ys[i]}
	}
	slices.SortFunc(pairs, func(a, b [2]float64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for i, p := range pairs {
		xs[i], ys[i] = p[0], p[1]
	}
	spread := 0.0
	if n > 1 {
		minX, maxX := xs[0], xs[0]
		for _, x := range xs {
			minX = math.Min(minX, x)
			maxX = math.Max(maxX, x)
		}
		spread = maxX - minX
	}
	if n >= 2 && spread >= rateFitSpread.Seconds() {
		var sumX, sumY float64
		for i := range xs {
			sumX += xs[i]
			sumY += ys[i]
		}
		meanX, meanY := sumX/float64(n), sumY/float64(n)
		var cov, varX float64
		for i := range xs {
			cov += (xs[i] - meanX) * (ys[i] - meanY)
			varX += (xs[i] - meanX) * (xs[i] - meanX)
		}
		if varX > 0 {
			scale := cov / varX
			if scale >= minScale && scale <= maxScale {
				return NodeAlign{Scale: scale, Shift: meanY - scale*meanX, Anchors: n}
			}
		}
	}
	// Median offset: robust to a stray retransmitted or reordered anchor.
	deltas := make([]float64, n)
	for i := range xs {
		deltas[i] = ys[i] - xs[i]
	}
	sort.Float64s(deltas)
	return NodeAlign{Scale: 1, Shift: deltas[n/2], Anchors: n}
}

func traceKey(trace uint64) string {
	return string(appendHex(make([]byte, 0, 16), trace))
}

func updateKey(origin string, counter uint64) string {
	return origin + "/" + string(appendHex(make([]byte, 0, 16), counter))
}

func appendHex(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}
