// Package telemetry is a dependency-free metrics layer shared by the
// simulator and the live daemons: a registry of named metric families
// (counters, gauges, fixed-bucket histograms, optionally labeled) and a
// Prometheus text-format exposition writer (prometheus.go).
//
// Design constraints, in order:
//
//  1. Zero allocations on the hot path. Incrementing a counter or
//     observing a histogram sample touches only atomics. Callers resolve
//     labeled children (With) once at setup and hold the returned
//     handles; With itself takes the family lock and may allocate.
//  2. One taxonomy for simulated and live runs. internal/sim feeds the
//     same families that cmd/acnode serves on /metrics, so a dashboard
//     built against the simulator works unchanged against a deployment.
//  3. No dependencies beyond the standard library.
//
// Registration is get-or-create: asking twice for the same family (same
// name, kind, and label keys) returns the same handles, so independent
// subsystems can share families without coordinating initialization.
// Conflicting re-registration (same name, different kind or labels) is a
// programming error and panics.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them for exposition.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with a fixed label-key set. Children are
// keyed by their label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	// collect, if set, replaces children at exposition time: the family
	// is a snapshot set whose samples are regenerated on every scrape
	// (used for state gauges like per-peer connection state, where the
	// set of label values changes over time).
	collect func(emit func(labelValues []string, v float64))
}

// child is one sample series within a family. Exactly one of the value
// fields is set, matching the family kind.
type child struct {
	values []string // label values, parallel to family.labels
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64 // func-backed counter or gauge
	hist   *Histogram
	histFn func() HistogramSnapshot // func-backed histogram
}

// value reads a counter or gauge child: its function when one is
// installed, else its counter or gauge.
func (c *child) value() float64 {
	switch {
	case c.fn != nil:
		return c.fn()
	case c.ctr != nil:
		return float64(c.ctr.Value())
	case c.gauge != nil:
		return c.gauge.Value()
	}
	return 0
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("telemetry: invalid label name %q for metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	if kind == kindHistogram {
		f.buckets = normalizeBuckets(buckets)
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values with a byte that cannot appear in UTF-8
// label values unescaped-ambiguously enough for a map key.
func childKey(values []string) string {
	return strings.Join(values, "\x00")
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := childKey(values)
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.ctr = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Counter --------------------------------------------------------------

// A Counter is a monotonically increasing value. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	v       atomic.Uint64
	derived tallies
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() + c.derived.sum() }

// Derive makes src part of the counter: from now on Value — and so the
// exposition and everything else that reads the counter — reports src's
// count on top of what Inc and Add put in. It is for an event that moves
// several metrics in lockstep on a hot path: the owner bumps the one atomic
// per event and derives each of the metrics from it, so they cannot
// disagree and the event costs one read-modify-write. src must never
// decrease, and stays part of the counter for good — a source its owner
// stops bumping keeps contributing what it had counted.
func (c *Counter) Derive(src *atomic.Uint64) { c.derived.add(src) }

// tallies is the set of external counts a metric folds in when it is read.
// Reads are one atomic load per source; adding one replaces the set.
type tallies struct {
	srcs atomic.Pointer[[]*atomic.Uint64]
}

func (t *tallies) add(src *atomic.Uint64) {
	for {
		old := t.srcs.Load()
		var next []*atomic.Uint64
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, src)
		if t.srcs.CompareAndSwap(old, &next) {
			return
		}
	}
}

func (t *tallies) sum() uint64 {
	srcs := t.srcs.Load()
	if srcs == nil {
		return 0
	}
	var n uint64
	for _, src := range *srcs {
		n += src.Load()
	}
	return n
}

// CounterVec is a counter family with labels. Resolve children with
// With at setup time and hold the handles; With locks and may allocate.
type CounterVec struct {
	f *family
}

// With returns the counter for the given label values (created on first
// use).
func (v CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).ctr
}

// WithFunc installs a function-backed counter sample for the given label
// values: the function is called at exposition time and must return a
// monotonically non-decreasing value. Re-installing for the same label
// values replaces the function (the latest closure wins, so re-built
// worlds can re-instrument the same registry).
func (v CounterVec) WithFunc(fn func() float64, labelValues ...string) {
	c := v.f.child(labelValues)
	v.f.mu.Lock()
	c.fn = fn
	v.f.mu.Unlock()
}

// Counter returns (creating if needed) an unlabeled counter family with
// a single sample.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec returns (creating if needed) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// CounterFunc registers an unlabeled counter whose value is read from fn
// at exposition time. Use it to re-export counters a subsystem already
// maintains (e.g. transport send/drop totals) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.CounterVec(name, help).WithFunc(fn)
}

// Gauge ----------------------------------------------------------------

// A Gauge is a value that can go up and down. All methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct {
	f *family
}

// With returns the gauge for the given label values.
func (v GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).gauge
}

// WithFunc installs a function-backed gauge sample for the given label
// values, read at exposition time. Re-installing replaces the function.
func (v GaugeVec) WithFunc(fn func() float64, labelValues ...string) {
	c := v.f.child(labelValues)
	v.f.mu.Lock()
	c.fn = fn
	v.f.mu.Unlock()
}

// Gauge returns (creating if needed) an unlabeled gauge family with a
// single sample.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec returns (creating if needed) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers an unlabeled gauge whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeVec(name, help).WithFunc(fn)
}

// GaugeSet registers a gauge family whose full sample set is regenerated
// on every scrape by collect, which must call emit once per sample with
// len(labels) label values. Use it when the label-value universe changes
// over time (per-peer connection state, per-app freeze state).
func (r *Registry) GaugeSet(name, help string, labels []string, collect func(emit func(labelValues []string, v float64))) {
	f := r.family(name, help, kindGauge, labels, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// Histogram ------------------------------------------------------------

// A Histogram counts observations into fixed buckets and tracks their
// sum. Observe is safe for concurrent use and allocation-free.
type Histogram struct {
	upper  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	zeros  tallies       // external counts of observations of 0 (DeriveZeros)
}

func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	out := b[:0]
	for _, u := range b {
		if math.IsInf(u, +1) || math.IsNaN(u) {
			continue // +Inf is implicit
		}
		if len(out) > 0 && out[len(out)-1] == u {
			continue
		}
		out = append(out, u)
	}
	return out
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// bucket returns the index of the bucket v falls in.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// DeriveZeros is Counter.Derive for a histogram: every unit of src is one
// observation of 0 — in the count and in 0's bucket of every Snapshot, and
// nothing in the sum — without an Observe having run for it. It is for a
// latency that is zero by definition, such as a cache hit on the host's own
// clock.
func (h *Histogram) DeriveZeros(src *atomic.Uint64) { h.zeros.add(src) }

// HistogramSnapshot is a point-in-time copy of a histogram's buckets.
// Counts has one entry per upper bound plus a final overflow (+Inf)
// entry; entries are per-bucket, not cumulative.
type HistogramSnapshot struct {
	Upper  []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the current bucket counts. Concurrent Observe calls
// may straddle the copy; totals are consistent to within in-flight
// observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Upper:  h.upper,
		Counts: make([]uint64, len(h.counts)),
	}
	h.addTo(&s)
	return s
}

// addTo adds h's observations to s, which has h's bucket layout.
func (h *Histogram) addTo(s *HistogramSnapshot) {
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] += n
		s.Count += n
	}
	z := h.zeros.sum()
	s.Counts[h.bucket(0)] += z
	s.Count += z
	s.Sum += math.Float64frombits(h.sum.Load())
}

// HistogramVec is a histogram family with labels. All children share the
// family's bucket layout.
type HistogramVec struct {
	f *family
}

// With returns the histogram for the given label values.
func (v HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).hist
}

// Histogram returns (creating if needed) an unlabeled histogram family
// with a single sample series. buckets are ascending upper bounds in the
// metric's unit; nil means DefBuckets. The bucket layout is fixed by the
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec returns (creating if needed) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.family(name, help, kindHistogram, labels, buckets)}
}

// HistogramFunc registers an unlabeled histogram whose full snapshot is
// read from fn at exposition time. Use it to re-export bucketed counts a
// subsystem already maintains with its own atomics (e.g. the transport's
// frames-per-flush buckets) without double counting. fn must return a
// snapshot whose Counts has len(Upper)+1 entries (per-bucket, last slot is
// overflow); buckets should match the Upper bounds fn reports.
// Re-registering replaces the function.
func (r *Registry) HistogramFunc(name, help string, buckets []float64, fn func() HistogramSnapshot) {
	f := r.family(name, help, kindHistogram, nil, buckets)
	c := f.child(nil)
	f.mu.Lock()
	c.histFn = fn
	f.mu.Unlock()
}

// In-place reads -------------------------------------------------------

// lookup returns the named family, nil when none is registered.
func (r *Registry) lookup(name string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams[name]
}

// Sum adds the values of a counter or gauge family's series whose label
// has the given value; an empty label matches every series. It reads the
// family in place, as Metrics.Sum reads a scrape of it, without rendering
// anything or allocating: 0 for an unknown family or label.
func (r *Registry) Sum(name, label, value string) float64 {
	f := r.lookup(name)
	if f == nil || f.kind == kindHistogram {
		return 0
	}
	k := slices.Index(f.labels, label)
	if label != "" && k < 0 {
		return 0
	}
	total := 0.0
	f.mu.Lock()
	collect := f.collect // a collector's samples replace the children
	for _, c := range f.children {
		if collect == nil && (k < 0 || c.values[k] == value) {
			total += c.value()
		}
	}
	f.mu.Unlock()
	if collect != nil {
		return sumCollected(collect, k, value)
	}
	return total
}

// sumCollected is Sum over a collector's samples, apart so that only a
// collector-backed family pays for the closure it hands the collector.
func sumCollected(collect func(emit func([]string, float64)), k int, value string) float64 {
	total := 0.0
	collect(func(values []string, v float64) {
		if k < 0 || values[k] == value {
			total += v
		}
	})
	return total
}

// HistogramFrom merges every series of a histogram family into one
// snapshot, read in place: the bucket counts Metrics.HistogramFrom
// rebuilds from a scrape of the family. Children are visited in map
// order, so Sum may differ from a scrape's in its last bits.
func (r *Registry) HistogramFrom(name string) (HistogramSnapshot, error) {
	f := r.lookup(name)
	if f == nil || f.kind != kindHistogram {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: no histogram family %q", name)
	}
	snap := HistogramSnapshot{Upper: f.buckets, Counts: make([]uint64, len(f.buckets)+1)}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.children {
		switch {
		case c.histFn != nil:
			merged, err := MergeHistograms(snap, c.histFn())
			if err != nil {
				return HistogramSnapshot{}, fmt.Errorf("telemetry: %s: %w", name, err)
			}
			snap = merged
		case c.hist != nil:
			c.hist.addTo(&snap)
		}
	}
	return snap, nil
}

// Bucket helpers -------------------------------------------------------

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// DefBuckets is the default layout for latency histograms in seconds:
// 100µs to ~26s, doubling. Wide enough for LAN RTTs, simulated WAN
// checks (tens of ms to seconds with retries), and R-round timeouts.
var DefBuckets = ExpBuckets(100e-6, 2, 18)
