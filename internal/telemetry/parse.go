package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// A Label is one name="value" pair on a parsed sample, in exposition
// order, with escape sequences decoded.
type Label struct {
	Name, Value string
}

// A Sample is one parsed series line. Name is the series name as
// exposed, including histogram _bucket/_sum/_count suffixes; histogram
// bucket samples carry their "le" bound as an ordinary label.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label and whether it is present.
func (s Sample) Label(name string) (string, bool) {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// Metrics is an exposition as data: every declared family's type and help
// (escaped, as written), plus every sample in exposition order. ParseMetrics
// builds one from text, Registry.Gather from a registry, and Write renders
// one as text.
type Metrics struct {
	Types   map[string]string
	Help    map[string]string
	Samples []Sample
}

// Family returns the base family name for a series name: histogram
// component suffixes (_bucket/_sum/_count) are stripped when the base is
// a declared histogram or summary family.
func (m *Metrics) Family(series string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(series, suf); base != series {
			if t := m.Types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return series
}

// ParseMetrics reads Prometheus text exposition and returns the declared
// families and every sample with decoded labels and value. It applies
// the same strict validation as ParseText (which is a view over this
// parser): the first malformed line, sample without a preceding # TYPE
// declaration, or unparseable value is an error.
func ParseMetrics(r io.Reader) (*Metrics, error) {
	m := &Metrics{
		Types: make(map[string]string),
		Help:  make(map[string]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, m); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			continue
		}
		s, err := parseSample(line, m)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// unescapeLabel decodes the \\, \", and \n escapes scanLabels validated.
func unescapeLabel(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default: // \\ and \"
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Sum adds the values of the series called name whose label has the
// given value; an empty label matches every series. For a counter or gauge
// family it is Registry.Sum over a scrape of the registry.
func (m *Metrics) Sum(name, label, value string) float64 {
	total := 0.0
	for _, s := range m.Samples {
		if v, _ := s.Label(label); s.Name == name && (label == "" || v == value) {
			total += s.Value
		}
	}
	return total
}

// HistogramFrom reconstructs a snapshot from one histogram family's
// parsed samples: bucket series are summed per "le" bound across all
// label sets (cumulative counts add), then differenced back to
// per-bucket counts; _count and _sum series are summed likewise. It is
// the read-side inverse of the writer's cumulative rendering, used by
// fleet rollups (acmon's latency indicators). Returns an error when the
// family has no bucket samples or the bucket counts are not monotonically
// non-decreasing.
func (m *Metrics) HistogramFrom(familyName string) (HistogramSnapshot, error) {
	if t := m.Types[familyName]; t != "histogram" {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: %q is %q, not a histogram", familyName, t)
	}
	byLe := make(map[float64]float64)
	var snap HistogramSnapshot
	for _, s := range m.Samples {
		switch s.Name {
		case familyName + "_bucket":
			leStr, ok := s.Label("le")
			if !ok {
				return HistogramSnapshot{}, fmt.Errorf("telemetry: %s_bucket sample without le label", familyName)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return HistogramSnapshot{}, fmt.Errorf("telemetry: bad le %q on %s_bucket", leStr, familyName)
			}
			byLe[le] += s.Value
		case familyName + "_sum":
			snap.Sum += s.Value
		}
	}
	if len(byLe) == 0 {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: no %s_bucket samples", familyName)
	}
	les := make([]float64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les) // +Inf sorts last
	if !math.IsInf(les[len(les)-1], +1) {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: %s has no +Inf bucket", familyName)
	}
	prev := 0.0
	for _, le := range les {
		cum := byLe[le]
		if cum < prev {
			return HistogramSnapshot{}, fmt.Errorf("telemetry: %s bucket counts not cumulative at le=%v", familyName, le)
		}
		if !math.IsInf(le, +1) {
			snap.Upper = append(snap.Upper, le)
		}
		snap.Counts = append(snap.Counts, uint64(cum-prev))
		prev = cum
	}
	snap.Count = uint64(byLe[les[len(les)-1]])
	return snap, nil
}
