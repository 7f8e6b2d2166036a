package fleet

import (
	"fmt"
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

// newRollup returns an empty fleet rollup and the index fold keeps over it.
func newRollup() (roll *telemetry.Metrics, at map[string]int) {
	return &telemetry.Metrics{Types: make(map[string]string), Help: make(map[string]string)},
		make(map[string]int)
}

// fold adds one node's parsed exposition to the rollup in place: a series
// the rollup already has (at maps its name and labelKey to its index in
// roll.Samples) takes the node's value by its family's fold, a new one is
// appended. A family whose type differs from the rollup's is an error, and
// then nothing is folded.
func fold(roll *telemetry.Metrics, at map[string]int, src *telemetry.Metrics) error {
	for name, typ := range src.Types {
		if prev, ok := roll.Types[name]; ok && prev != typ {
			return fmt.Errorf("fleet: family %s is %s on one node, %s on another", name, prev, typ)
		}
	}
	for name, typ := range src.Types {
		roll.Types[name] = typ
	}
	for name, help := range src.Help {
		if _, ok := roll.Help[name]; !ok {
			roll.Help[name] = help
		}
	}
	for _, s := range src.Samples {
		key := s.Name + "\x01" + labelKey(s.Labels, "")
		i, ok := at[key]
		if !ok {
			at[key] = len(roll.Samples)
			roll.Samples = append(roll.Samples, s)
			continue
		}
		cur := &roll.Samples[i]
		// Counters, histogram buckets/sums/counts and untyped series sum;
		// gauges fold by their family's policy.
		fam := src.Family(s.Name)
		switch {
		case roll.Types[fam] != "gauge":
			cur.Value += s.Value
		case gaugePolicy[fam] == foldMax:
			cur.Value = math.Max(cur.Value, s.Value)
		case gaugePolicy[fam] == foldMin:
			cur.Value = math.Min(cur.Value, s.Value)
		default:
			cur.Value += s.Value
		}
	}
	return nil
}

// sortRollup puts the rollup's samples in exposition order, the order
// Metrics.Write prints them in: by series name, by label set (labels
// compared by name, "le" aside) and by numeric "le" bound, so a
// histogram's buckets read in bound order.
func sortRollup(roll *telemetry.Metrics) {
	ss := roll.Samples
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if ka, kb := labelKey(a.Labels, "le"), labelKey(b.Labels, "le"); ka != kb {
			return ka < kb
		}
		return leBound(a) < leBound(b)
	})
}

// labelKey canonicalizes a label set: name=value pairs sorted by label
// name, the label called skip left out.
func labelKey(labels []telemetry.Label, skip string) string {
	pairs := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != skip {
			pairs = append(pairs, l.Name+"\x00"+l.Value)
		}
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x02")
}

// leBound is a sample's "le" bound, +Inf when it has none or it does not
// parse.
func leBound(s telemetry.Sample) float64 {
	le, _ := s.Label("le")
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return math.Inf(+1)
	}
	return v
}
