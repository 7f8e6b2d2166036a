package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with # HELP and
// # TYPE lines, children sorted by label values, histograms expanded to
// cumulative _bucket/_sum/_count series. Safe to call concurrently with
// metric updates; the output is consistent to within in-flight
// operations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sample is one rendered series: resolved label values and value.
type sample struct {
	values []string
	v      float64
	hist   HistogramSnapshot // histogram families only
}

func (f *family) gather() []sample {
	f.mu.Lock()
	collect := f.collect
	var out []sample
	if collect == nil {
		out = make([]sample, 0, len(f.children))
		for _, c := range f.children {
			s := sample{values: c.values}
			switch {
			case c.histFn != nil:
				s.hist = c.histFn()
			case c.hist != nil:
				s.hist = c.hist.Snapshot()
			case c.fn != nil:
				s.v = c.fn()
			case c.ctr != nil:
				s.v = float64(c.ctr.Value())
			case c.gauge != nil:
				s.v = c.gauge.Value()
			}
			out = append(out, s)
		}
	}
	f.mu.Unlock()
	if collect != nil {
		collect(func(labelValues []string, v float64) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("telemetry: collector for %q emitted %d label values, want %d", f.name, len(labelValues), len(f.labels)))
			}
			out = append(out, sample{values: append([]string(nil), labelValues...), v: v})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (f *family) write(w *bufio.Writer) error {
	samples := f.gather()
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range samples {
		if f.kind == kindHistogram {
			writeHistogram(w, f.name, f.labels, s.values, s.hist)
			continue
		}
		writeSample(w, f.name, f.labels, s.values, "", "", s.v)
	}
	return nil
}

func writeHistogram(w *bufio.Writer, name string, labels, values []string, h HistogramSnapshot) {
	cum := uint64(0)
	for i, upper := range h.Upper {
		cum += h.Counts[i]
		writeSample(w, name+"_bucket", labels, values, "le", formatFloat(upper), float64(cum))
	}
	writeSample(w, name+"_bucket", labels, values, "le", "+Inf", float64(h.Count))
	writeSample(w, name+"_sum", labels, values, "", "", h.Sum)
	writeSample(w, name+"_count", labels, values, "", "", float64(h.Count))
}

// writeSample renders one series line. extraKey/extraVal append a
// synthetic label (the histogram "le" bound) after the family labels.
func writeSample(w *bufio.Writer, name string, labels, values []string, extraKey, extraVal string, v float64) {
	w.WriteString(name)
	if len(labels) > 0 || extraKey != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(values[i]))
			w.WriteByte('"')
		}
		if extraKey != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(extraKey)
			w.WriteString(`="`)
			w.WriteString(extraVal)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// Write renders a parsed exposition back in text format, leaving out the
// families in skip: families in name order, each with its # HELP (when
// known) and # TYPE lines, then its samples ordered by series name, by
// label set (labels compared by name, "le" aside) and by numeric "le"
// bound, so a histogram's buckets read in bound order. Help text is written
// as parsed. acmon re-exports its fleet rollup this way.
func (m *Metrics) Write(w io.Writer, skip map[string]bool) error {
	fams := make([]string, 0, len(m.Types))
	for name := range m.Types {
		if !skip[name] {
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
		ss := byFam[name]
		sort.Slice(ss, func(i, j int) bool {
			a, b := ss[i], ss[j]
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			if ka, kb := labelKey(a.Labels), labelKey(b.Labels); ka != kb {
				return ka < kb
			}
			return leBound(a) < leBound(b)
		})
		if help, ok := m.Help[name]; ok {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, m.Types[name])
		for _, s := range ss {
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

// labelKey orders label sets for Write: name=value pairs sorted by label
// name, "le" left out.
func labelKey(labels []Label) string {
	pairs := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != "le" {
			pairs = append(pairs, l.Name+"\x00"+l.Value)
		}
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x02")
}

// leBound is a sample's "le" bound, +Inf when it has none or it does not
// parse.
func leBound(s Sample) float64 {
	le, _ := s.Label("le")
	v, err := parseValue(le)
	if err != nil {
		return math.Inf(+1)
	}
	return v
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

func parseSample(line string, types map[string]string) (Sample, error) {
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
	base := name
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if t, ok := types[strings.TrimSuffix(name, suf)]; ok && (t == "histogram" || t == "summary") && strings.HasSuffix(name, suf) {
			base = strings.TrimSuffix(name, suf)
			break
		}
	}
	if _, ok := types[base]; !ok {
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
