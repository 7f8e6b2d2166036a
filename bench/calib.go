package main

import (
	"sync"
	"time"
)

// The box this runs on is a few cores of a shared host, and for minutes at a
// time every workload on it runs 15-25 % slower (ten runs of one binary: the
// four rates fell together, by 15, 20, 20 and 22 %, for nine minutes). No
// bound the contract allows survives that, so the end-to-end pass measures
// the box beside the program: between the slices of the timed window it runs
// a fixed piece of work, the reference kernel, and reads the box's speed off
// it as a share of refUnitsPerSecond. The run's times are then reported in
// reference seconds — seconds x the run's speed — so a rate says how fast
// the program is on a box running at reference speed, whatever the
// neighbours were doing. README.md ("Reference speed") has the evidence; the
// end-to-end pass prints the raw numbers and the speed beside the normalised
// ones, and the per-layer pass, which is not normalised, reports the speed as
// bench.speed_index.

// refUnitsPerSecond is the reference speed: what one thread of the reference
// box (2 vCPUs of a shared 2.1 GHz Xeon host, both busy) does in a calm
// minute.
const refUnitsPerSecond = 14000

// refThread is one thread's share of the reference kernel: string-keyed map
// reads under a mutex (the shape of a cached check) and a pointer chase
// through 256 KB. It fits the L2 cache on purpose: a kernel that reaches
// past it reads three times slower after a window of cold-tcp (which leaves
// none of it cached) than after one of cached-hot, and would say more about
// the workload before it than about the box. It allocates nothing, so it
// never starts a collection of the workload's heap.
type refThread struct {
	_     [128]byte // the threads share no cache line
	mu    sync.Mutex
	m     map[string]int
	keys  []string
	chase []uint32
	at    uint32
	sum   int
	_     [128]byte
}

const (
	refChaseLen = 64 << 10 // uint32s: 256 KB
	refStride   = 2000     // map reads and chase steps per unit
)

func newRefThread(seed uint32) *refThread {
	t := &refThread{m: map[string]int{}, chase: make([]uint32, refChaseLen)}
	for i, u := range userIDs("u", 256) {
		t.keys = append(t.keys, string(u))
		t.m[string(u)] = i
	}
	// Sattolo's shuffle: one cycle through every element.
	for i := range t.chase {
		t.chase[i] = uint32(i)
	}
	x := seed | 1
	for i := len(t.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x % uint32(i)
		t.chase[i], t.chase[j] = t.chase[j], t.chase[i]
	}
	return t
}

// spin does whole units of work for about d and returns units per second.
func (t *refThread) spin(d time.Duration) float64 {
	start := time.Now()
	units, sum, at := 0, 0, t.at
	for {
		for i := 0; i < refStride; i++ {
			t.mu.Lock()
			sum += t.m[t.keys[(i+units)&255]]
			t.mu.Unlock()
		}
		for i := 0; i < refStride; i++ {
			at = t.chase[at]
		}
		units++
		if el := time.Since(start); el >= d {
			t.at, t.sum = at, t.sum+sum // keeps the loops from being optimised away
			return float64(units) / el.Seconds()
		}
	}
}

// refKernel runs one refThread per processor.
type refKernel struct{ threads []*refThread }

func newRefKernel() *refKernel {
	k := &refKernel{}
	for i := 0; i < nproc(); i++ {
		k.threads = append(k.threads, newRefThread(uint32(i+1)))
	}
	return k
}

// speed spins every thread at once for d and returns the box's speed as a
// share of the reference speed (1 = the reference box in a calm minute).
func (k *refKernel) speed(d time.Duration) float64 {
	rates := make([]float64, len(k.threads))
	var wg sync.WaitGroup
	for i, t := range k.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i] = t.spin(d)
		}()
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum / (refUnitsPerSecond * float64(len(rates)))
}

// calibShare is the share of every slice of an end-to-end window that goes to
// the reference kernel; the rest carries the load.
const calibShare = 0.3

// refClock reads the box's speed between the stretches of a run. The run's
// speed is the median reading: single readings are as noisy as the slices
// they sit between (a quarter second each, 0.97 to 1.59 within one calm run
// of cold-tcp, where a collection of the 200 MB heap may still be marking),
// so dividing slice by slice adds more noise than it removes; what the clock
// is for, a box that is slow for minutes, moves the median of thirty.
type refClock struct {
	k      *refKernel
	d      time.Duration // one reading
	speeds []float64     // every reading
}

// newRefClock builds the kernel, spins it until the processors are at speed
// (the first second after idling runs at half speed) and takes the first
// reading.
func newRefClock(seconds float64) *refClock {
	c := &refClock{k: newRefKernel(), d: secs(seconds / slices * calibShare)}
	c.k.speed(500 * time.Millisecond)
	c.read()
	return c
}

func (c *refClock) read() { c.speeds = append(c.speeds, c.k.speed(c.d)) }

func (c *refClock) speed() float64 { return median(c.speeds) }
