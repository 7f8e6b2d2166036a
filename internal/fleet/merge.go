package fleet

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"wanac/internal/telemetry"
)

// How families fold across nodes. Counters and histogram components
// always sum (cumulative event counts add; summed cumulative bucket
// counts are exactly the merged histogram). Gauges fold by per-family
// policy: most wanac gauges are extensive quantities (queue depths,
// cache entries) where the fleet value is the sum, but a few are not.
type gaugeFold int

const (
	foldSum gaugeFold = iota
	foldMax
	foldMin
)

// gaugePolicy overrides the default sum fold for gauge families where
// adding across nodes would be meaningless.
var gaugePolicy = map[string]gaugeFold{
	// The widest effective Te in the fleet is the bound operators must
	// assume revocations can take.
	"wanac_manager_effective_te_seconds": foldMax,
	// The oldest process start is the fleet's uptime anchor.
	"wanac_process_start_time_seconds": foldMin,
	// A ratio: the worst cell is the honest fleet headline.
	"wanac_host_cache_hit_ratio": foldMin,
}

// series is one merged sample line.
type series struct {
	name   string
	labels []telemetry.Label // exposition order, le kept numeric-sortable
	value  float64
}

// merged is a fleet-wide rollup of N parsed expositions.
type merged struct {
	types  map[string]string
	help   map[string]string
	series map[string]*series
}

func newMerged() *merged {
	return &merged{
		types:  make(map[string]string),
		help:   make(map[string]string),
		series: make(map[string]*series),
	}
}

// seriesKey canonicalizes a sample identity: series name plus label
// pairs sorted by label name.
func seriesKey(name string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, len(labels))
	for i, l := range labels {
		pairs[i] = l.Name + "\x00" + l.Value
	}
	sort.Strings(pairs)
	return name + "\x01" + strings.Join(pairs, "\x02")
}

// add folds one node's parsed exposition into the rollup.
func (m *merged) add(src *telemetry.Metrics) error {
	for name, typ := range src.Types {
		if prev, ok := m.types[name]; ok && prev != typ {
			return fmt.Errorf("fleet: family %s is %s on one node, %s on another", name, prev, typ)
		}
		m.types[name] = typ
	}
	for name, help := range src.Help {
		if _, ok := m.help[name]; !ok {
			m.help[name] = help
		}
	}
	for _, s := range src.Samples {
		fam := src.Family(s.Name)
		key := seriesKey(s.Name, s.Labels)
		cur, ok := m.series[key]
		if !ok {
			m.series[key] = &series{
				name:   s.Name,
				labels: append([]telemetry.Label(nil), s.Labels...),
				value:  s.Value,
			}
			continue
		}
		if m.types[fam] == "gauge" {
			switch gaugePolicy[fam] {
			case foldMax:
				cur.value = math.Max(cur.value, s.Value)
			case foldMin:
				cur.value = math.Min(cur.value, s.Value)
			default:
				cur.value += s.Value
			}
			continue
		}
		// Counters, histogram buckets/sums/counts, untyped: sum.
		cur.value += s.Value
	}
	return nil
}

// sum adds the values of every series with the given name that matches
// the filter (nil matches all).
func (m *merged) sum(name string, match func(s *series) bool) float64 {
	total := 0.0
	for _, s := range m.series {
		if s.name != name {
			continue
		}
		if match != nil && !match(s) {
			continue
		}
		total += s.value
	}
	return total
}

// label returns a series' label value ("" when absent).
func (s *series) label(name string) string {
	for _, l := range s.labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// histogram reconstructs the fleet-wide snapshot of one histogram
// family, folding every label set (nodes and family labels alike):
// cumulative bucket values are summed per le bound, then differenced.
func (m *merged) histogram(family string) (telemetry.HistogramSnapshot, error) {
	if t := m.types[family]; t != "histogram" {
		return telemetry.HistogramSnapshot{}, fmt.Errorf("fleet: %q is %q, not a histogram", family, t)
	}
	byLe := make(map[float64]float64)
	var snap telemetry.HistogramSnapshot
	for _, s := range m.series {
		switch s.name {
		case family + "_bucket":
			le, err := strconv.ParseFloat(strings.Replace(s.label("le"), "+Inf", "Inf", 1), 64)
			if err != nil {
				return telemetry.HistogramSnapshot{}, fmt.Errorf("fleet: bad le on %s: %v", s.name, err)
			}
			byLe[le] += s.value
		case family + "_sum":
			snap.Sum += s.value
		}
	}
	if len(byLe) == 0 {
		return telemetry.HistogramSnapshot{}, fmt.Errorf("fleet: no %s_bucket series", family)
	}
	les := make([]float64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les)
	if !math.IsInf(les[len(les)-1], +1) {
		return telemetry.HistogramSnapshot{}, fmt.Errorf("fleet: %s has no +Inf bucket", family)
	}
	prev := 0.0
	for _, le := range les {
		if !math.IsInf(le, +1) {
			snap.Upper = append(snap.Upper, le)
		}
		snap.Counts = append(snap.Counts, uint64(byLe[le]-prev))
		prev = byLe[le]
	}
	snap.Count = uint64(byLe[les[len(les)-1]])
	return snap, nil
}

// write renders the rollup in Prometheus text format, skipping families
// in the exclude set (the monitor's own registry wins name collisions).
// Families are sorted by name, series within a family by name then
// labels, with histogram le bounds in numeric order.
func (m *merged) write(w io.Writer, exclude map[string]bool) error {
	fams := make([]string, 0, len(m.types))
	for name := range m.types {
		if !exclude[name] {
			fams = append(fams, name)
		}
	}
	sort.Strings(fams)

	byFam := make(map[string][]*series, len(fams))
	for _, s := range m.series {
		byFam[m.family(s.name)] = append(byFam[m.family(s.name)], s)
	}
	for _, name := range fams {
		ss := byFam[name]
		sort.Slice(ss, func(i, j int) bool {
			a, b := ss[i], ss[j]
			if a.name != b.name {
				return a.name < b.name
			}
			if la, lb := a.label("le"), b.label("le"); la != lb {
				// Bucket series compare by non-le labels first, bound last.
				if ka, kb := stripLe(a), stripLe(b); ka != kb {
					return ka < kb
				}
				return leValue(la) < leValue(lb)
			}
			return seriesKey(a.name, a.labels) < seriesKey(b.name, b.labels)
		})
		if help, ok := m.help[name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.types[name]); err != nil {
			return err
		}
		for _, s := range ss {
			if err := writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// family maps a series name to its declared family (mirrors
// telemetry.Metrics.Family over the merged type table).
func (m *merged) family(seriesName string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(seriesName, suf); base != seriesName {
			if t := m.types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return seriesName
}

func stripLe(s *series) string {
	rest := make([]telemetry.Label, 0, len(s.labels))
	for _, l := range s.labels {
		if l.Name != "le" {
			rest = append(rest, l)
		}
	}
	return seriesKey(s.name, rest)
}

func leValue(s string) float64 {
	if s == "+Inf" {
		return math.Inf(+1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.Inf(+1)
	}
	return v
}

func writeSeries(w io.Writer, s *series) error {
	var b strings.Builder
	b.WriteString(s.name)
	if len(s.labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(s.value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
