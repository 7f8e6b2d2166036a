package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): Gather's families and samples, written by
// Metrics.Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Gather().Write(w, nil)
}

// Gather reads every family into one Metrics, the model WritePrometheus
// renders: families sorted by name, each with its type and its help
// (escaped, as ParseMetrics stores it); children sorted by label values;
// a histogram child expanded to cumulative _bucket series, then _sum and
// _count. Safe to call concurrently with metric updates; the result is
// consistent to within in-flight operations.
func (r *Registry) Gather() *Metrics {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	m := &Metrics{
		Types: make(map[string]string, len(fams)),
		Help:  make(map[string]string, len(fams)),
	}
	for _, f := range fams {
		m.Types[f.name] = f.kind.String()
		m.Help[f.name] = escapeHelp(f.help)
		f.gather(m)
	}
	return m
}

// gather appends the family's samples to m in exposition order. A
// collector's samples stand in for the children, as fixed-value series.
func (f *family) gather(m *Metrics) {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	collect := f.collect
	f.mu.Unlock()
	if collect != nil {
		kids = kids[:0]
		collect(func(labelValues []string, v float64) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("telemetry: collector for %q emitted %d label values, want %d", f.name, len(labelValues), len(f.labels)))
			}
			kids = append(kids, &child{values: append([]string(nil), labelValues...), fn: func() float64 { return v }})
		})
	}
	sort.Slice(kids, func(i, j int) bool { return slices.Compare(kids[i].values, kids[j].values) < 0 })
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range kids {
		var labels []Label // nil when unlabeled, as ParseMetrics leaves it
		if len(c.values) > 0 {
			labels = make([]Label, len(c.values))
		}
		for i, v := range c.values {
			labels[i] = Label{Name: f.labels[i], Value: v}
		}
		switch {
		case c.histFn != nil:
			m.appendHistogram(f.name, labels, c.histFn())
		case c.hist != nil:
			m.appendHistogram(f.name, labels, c.hist.Snapshot())
		default:
			m.Samples = append(m.Samples, Sample{Name: f.name, Labels: labels, Value: c.value()})
		}
	}
}

// appendHistogram expands one histogram series: a cumulative _bucket
// sample per bound plus +Inf, each with an "le" label after the series'
// own, then _sum and _count. The bucket label sets share one allocation.
func (m *Metrics) appendHistogram(name string, labels []Label, h HistogramSnapshot) {
	n := len(labels) + 1
	sets := make([]Label, n*(len(h.Upper)+1))
	bucket := name + "_bucket"
	cum := uint64(0)
	for i := 0; i <= len(h.Upper); i++ {
		le, count := "+Inf", h.Count
		if i < len(h.Upper) {
			cum += h.Counts[i]
			le, count = formatFloat(h.Upper[i]), cum
		}
		ls := sets[i*n : (i+1)*n : (i+1)*n]
		copy(ls, labels)
		ls[n-1] = Label{Name: "le", Value: le}
		m.Samples = append(m.Samples, Sample{Name: bucket, Labels: ls, Value: float64(count)})
	}
	m.Samples = append(m.Samples,
		Sample{Name: name + "_sum", Labels: labels, Value: h.Sum},
		Sample{Name: name + "_count", Labels: labels, Value: float64(h.Count)})
}

// Write renders m in text format, leaving out the families named by
// skip's keys (another Metrics' Types, say): families in name order, each
// with its # HELP (when known) and # TYPE lines, then its samples in the
// order m holds them. Help text is written as held, already escaped. It is
// the one exposition writer: a registry's /metrics (WritePrometheus) and
// acmon's fleet rollup both come out here.
func (m *Metrics) Write(w io.Writer, skip map[string]string) error {
	fams := make([]string, 0, len(m.Types))
	for name := range m.Types {
		if _, dup := skip[name]; !dup {
			fams = append(fams, name)
		}
	}
	sort.Strings(fams)
	byFam := make(map[string][]Sample, len(fams))
	for _, s := range m.Samples {
		fam := m.Family(s.Name)
		byFam[fam] = append(byFam[fam], s)
	}
	bw := bufio.NewWriter(w)
	for _, name := range fams {
		if help, ok := m.Help[name]; ok {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, m.Types[name])
		for _, s := range byFam[name] {
			bw.WriteString(s.Name)
			for i, l := range s.Labels {
				if i == 0 {
					bw.WriteByte('{')
				} else {
					bw.WriteByte(',')
				}
				bw.WriteString(l.Name)
				bw.WriteString(`="`)
				bw.WriteString(escapeLabel(l.Value))
				bw.WriteByte('"')
			}
			if len(s.Labels) > 0 {
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
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

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// ----------------------------------------------------------------------
// Validation parser. A deliberately strict reader for the subset of the
// text format this package emits; the golden test and the CI /metrics
// smoke step use it to fail on malformed lines and to check that
// required families are present.

// ParseText reads Prometheus text exposition and returns the declared
// type of every family (name -> "counter"|"gauge"|"histogram"|...). It
// returns an error on the first malformed line, on a sample whose family
// has no preceding # TYPE declaration, or on a sample value that does
// not parse as a float. ParseText is a validation-only view over
// ParseMetrics (parse.go), which additionally returns every sample.
func ParseText(r io.Reader) (map[string]string, error) {
	m, err := ParseMetrics(r)
	if err != nil {
		return nil, err
	}
	return m.Types, nil
}

func parseComment(line string, m *Metrics) error {
	types := m.Types
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", typ, name)
		}
		if prev, ok := types[name]; ok && prev != typ {
			return fmt.Errorf("metric %q re-declared as %s, was %s", name, typ, prev)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !validName(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP line", fields[2])
		}
		if len(fields) == 4 {
			m.Help[fields[2]] = fields[3]
		}
	}
	return nil
}

func parseSample(line string, m *Metrics) (Sample, error) {
	var out Sample
	rest := line
	// Metric name.
	i := 0
	for i < len(rest) && rest[i] != '{' && rest[i] != ' ' {
		i++
	}
	name := rest[:i]
	if !validName(name) {
		return out, fmt.Errorf("invalid metric name %q", name)
	}
	out.Name = name
	rest = rest[i:]
	// Optional label set.
	if strings.HasPrefix(rest, "{") {
		end, err := scanLabels(rest, func(k, v string) {
			out.Labels = append(out.Labels, Label{Name: k, Value: unescapeLabel(v)})
		})
		if err != nil {
			return out, fmt.Errorf("metric %q: %w", name, err)
		}
		rest = rest[end:]
	}
	// Value (and optional timestamp, which this writer never emits).
	rest = strings.TrimPrefix(rest, " ")
	valStr := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valStr = rest[:sp]
		if _, err := strconv.ParseInt(strings.TrimSpace(rest[sp+1:]), 10, 64); err != nil {
			return out, fmt.Errorf("metric %q: malformed timestamp %q", name, rest[sp+1:])
		}
	}
	v, err := parseValue(valStr)
	if err != nil {
		return out, fmt.Errorf("metric %q: malformed value %q", name, valStr)
	}
	out.Value = v
	// The sample must belong to a declared family. Histogram samples use
	// the family name plus a _bucket/_sum/_count suffix.
	if _, ok := m.Types[m.Family(name)]; !ok {
		return out, fmt.Errorf("sample %q has no preceding # TYPE declaration", name)
	}
	return out, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// scanLabels validates a {k="v",...} block starting at s[0] == '{' and
// returns the index just past the closing brace. collect, if non-nil,
// receives each (name, raw value) pair; the value is still escaped.
func scanLabels(s string, collect func(name, rawValue string)) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// Label name.
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) || !validLabelName(s[start:i]) {
			return 0, fmt.Errorf("malformed label name in %q", s)
		}
		name := s[start:i]
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value not quoted in %q", s)
		}
		i++ // past opening quote
		vstart := i
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				if i >= len(s) {
					return 0, fmt.Errorf("truncated escape in %q", s)
				}
				switch s[i] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("invalid escape \\%c in %q", s[i], s)
				}
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		if collect != nil {
			collect(name, s[vstart:i])
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func validLabelName(s string) bool {
	// "le" and family labels share the metric-name charset minus ':'.
	return validName(s) && !strings.Contains(s, ":")
}
