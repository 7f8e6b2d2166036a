package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// slices is how many equal parts every timed window is cut into. A rate is
// the mean of the middle half of the slices (midmean), so stalled slices (a
// neighbour on the shared box, a lost datagram's retry timeout) cannot move
// it, and it is steadier between runs than the median of a few slices.
const slices = 30

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of ascending xs by linear
// interpolation; 0 for an empty sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// midmean is the mean of the middle half of xs: the values from the first to
// the third quartile by rank.
func midmean(xs []float64) float64 {
	asc := sorted(xs)
	mid := asc[len(asc)/4 : len(asc)-len(asc)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// iqrRatio is (q3-q1)/median, the spread printed beside every rate.
func iqrRatio(xs []float64) float64 {
	asc := sorted(xs)
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(asc, 0.75) - quantile(asc, 0.25)) / med
}

// tail returns the highest percentile that still has at least ten samples
// beyond it (p99 for 1000+ samples, lower for fewer); zero when the sample
// is too small to have any tail.
func tail(asc []float64) float64 {
	n := len(asc)
	if n < 20 {
		return 0
	}
	pct := 1 - 10/float64(n)
	if pct > 0.99 {
		pct = 0.99
	}
	return quantile(asc, pct)
}

// usAscending converts latency samples to microseconds, ascending.
func usAscending(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapSampler reads, once per interval while a window runs, how much heap
// the runtime's last collection found live. live_heap_mb is the mean reading:
// what the program holds under its load, averaged over the window. A single
// forced collection after the window reads a phase instead: cold-tcp's
// managers hold 25 MB of per-user grant maps each and sweep them now and
// then, so that reading lands on one of three levels 27 MB apart; and
// sim-catalog's runners hold worlds of very different sizes by turns, which
// is also why it is the mean and not the median.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleHeap(every time.Duration) *heapSampler {
	runtime.GC() // the first reading is of this deployment, not of set-up garbage
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(live)
			h.mb = append(h.mb, float64(live[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mean stops the sampler and returns the mean reading.
func (h *heapSampler) mean() float64 {
	close(h.stop)
	<-h.done
	var sum float64
	for _, x := range h.mb {
		sum += x
	}
	return sum / float64(len(h.mb))
}

// cost is the process's CPU time and allocation count: cumulative from
// markCost, the delta of one timed window from since.
type cost struct {
	cpu     time.Duration
	mallocs uint64
}

func markCost() cost { return cost{cpu: cpuTime(), mallocs: mallocs()} }

func (m cost) since() cost {
	return cost{cpu: cpuTime() - m.cpu, mallocs: mallocs() - m.mallocs}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
