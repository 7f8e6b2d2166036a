package fleet

import (
	"fmt"
	"math"
	"sort"
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

// newRollup returns an empty fleet rollup and the index fold keeps over it.
func newRollup() (roll *telemetry.Metrics, at map[string]int) {
	return &telemetry.Metrics{Types: make(map[string]string), Help: make(map[string]string)},
		make(map[string]int)
}

// fold adds one node's parsed exposition to the rollup in place: a series
// the rollup already has (at maps its seriesKey to its index in
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
		key := seriesKey(s.Name, s.Labels)
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

// sum adds the values of the rollup's series called name whose label has
// the given value; an empty label matches every series.
func sum(roll *telemetry.Metrics, name, label, value string) float64 {
	total := 0.0
	for _, s := range roll.Samples {
		if v, _ := s.Label(label); s.Name == name && (label == "" || v == value) {
			total += s.Value
		}
	}
	return total
}
