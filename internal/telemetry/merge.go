package telemetry

import "fmt"

// MergeHistograms returns the snapshot a single histogram would report
// had it absorbed both inputs' observations: per-bucket counts add,
// totals add, sums add. Both snapshots must share the same bucket layout
// (identical Upper bounds); merging across layouts would silently
// misattribute counts, so it is an error instead. Registry.HistogramFrom
// folds func-backed series with it.
func MergeHistograms(a, b HistogramSnapshot) (HistogramSnapshot, error) {
	if len(a.Upper) != len(b.Upper) {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: merging histograms with %d vs %d buckets", len(a.Upper), len(b.Upper))
	}
	for i := range a.Upper {
		if a.Upper[i] != b.Upper[i] {
			return HistogramSnapshot{}, fmt.Errorf("telemetry: merging histograms with different bucket bounds at %d: %v vs %v", i, a.Upper[i], b.Upper[i])
		}
	}
	if len(a.Counts) != len(a.Upper)+1 || len(b.Counts) != len(b.Upper)+1 {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: malformed snapshot: counts/bounds length mismatch")
	}
	out := HistogramSnapshot{
		Upper:  append([]float64(nil), a.Upper...),
		Counts: make([]uint64, len(a.Counts)),
		Count:  a.Count + b.Count,
		Sum:    a.Sum + b.Sum,
	}
	for i := range out.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return out, nil
}
