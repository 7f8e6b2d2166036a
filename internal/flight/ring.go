package flight

import "math/bits"

// ring holds the last records written to it, up to its capacity: one of a
// journal's two windows. Its memory follows its use: it starts empty, grows
// by chunks as records arrive, and wraps once it reaches its capacity, so a
// window that records little holds little and one that records nothing holds
// nothing. A chunk is never copied or moved: a slot keeps its address until
// its record is overwritten, and the slots a window has but does not use are
// fewer than one chunk. The chunks double from minChunk to maxChunk, so that
// a small window takes few allocations and a large one wastes little; then
// each holds maxChunk slots.
//
// Beside its slots each chunk keeps a spill: the names of the records whose
// names the journal's table cannot hold (keep), an entry per slot, made at
// the chunk's first such record and cleared as its slot is taken by one that
// keeps none.
//
// A ring is not synchronised: the Recorder guards both of its windows with
// the one lock that also covers what it does beside the write (stamping,
// sequencing, counting, a sink), so that a record costs a single lock hold.
type ring[T any] struct {
	size   int        // capacity: the ring grows to this many slots, then wraps
	slots  int        // slots allocated so far, at most size
	chunks []chunk[T] // the slots, in order of record index
	next   uint64     // records ever committed to this ring
	w      int        // the chunk the next record goes in
	cur    []T        // chunks[w].slots
	off    int        // the slot in cur the next record goes in
}

// chunk is a run of a ring's slots and, once a record there keeps names,
// the spill beside them.
type chunk[T any] struct {
	slots []T
	spill []recordNames
}

// The chunk sizes: the first two chunks hold minChunk slots, each later one
// twice the one before, up to maxChunk, and every later one maxChunk
// (chunkStart); the last is cut to the ring's capacity.
const (
	minChunkLog = 6
	maxChunkLog = 10
	minChunk    = 1 << minChunkLog
	maxChunk    = 1 << maxChunkLog
)

// newRing returns an empty ring holding the last size records; a size below
// one holds one.
func newRing[T any](size int) ring[T] {
	return ring[T]{size: max(size, 1), w: -1}
}

// slot returns the slot the next record goes in, still holding the record it
// overwrites (if any). The caller builds the new record in place — every
// field, since nothing of the old one is cleared — and accepts it with
// commit. Building in the slot matters for large records holding pointers:
// copying one in costs several times what writing its fields does.
func (r *ring[T]) slot() *T {
	if r.off == len(r.cur) {
		r.advance()
	}
	return &r.cur[r.off]
}

// advance moves the write position to the start of the next chunk: one it
// allocates while the ring is below its capacity, and the first chunk once
// the ring is full, which wraps it. Not inlined: it runs once a chunk, and
// its body would sit in the middle of every record's write.
//
//go:noinline
func (r *ring[T]) advance() {
	r.w++
	if r.w == len(r.chunks) {
		if r.slots == r.size {
			r.w = 0
		} else {
			if r.chunks == nil { // one allocation for every chunk's header
				n := 1
				for chunkStart(n) < r.size {
					n++
				}
				r.chunks = make([]chunk[T], 0, n)
			}
			n := min(chunkStart(r.w+1), r.size) - r.slots
			r.chunks = append(r.chunks, chunk[T]{slots: make([]T, n)})
			r.slots += n
		}
	}
	r.cur, r.off = r.chunks[r.w].slots, 0
}

// chunkStart returns the slot chunk k starts at, in a ring of any capacity.
func chunkStart(k int) int {
	switch {
	case k == 0:
		return 0
	case k <= maxChunkLog-minChunkLog+1:
		return minChunk << (k - 1)
	}
	return (k + minChunkLog - maxChunkLog) * maxChunk
}

// commit accepts the record built in the last slot. Unless the record kept
// names there (keep), it frees what the record it overwrote kept beside the
// slot.
func (r *ring[T]) commit(kept bool) {
	if spill := r.chunks[r.w].spill; !kept && spill != nil {
		spill[r.off] = recordNames{}
	}
	r.off++
	r.next++
}

// retained returns how many records the ring holds; next minus retained
// were overwritten.
func (r *ring[T]) retained() uint64 { return min(r.next, uint64(r.slots)) }

// oldest returns the index of the oldest retained record: the retained
// records are at(oldest()) to at(next-1).
func (r *ring[T]) oldest() uint64 { return r.next - r.retained() }

// locate returns the chunk and the slot in it of retained record i. Until
// the ring wraps, record i is in slot i; after, in slot i mod size.
func (r *ring[T]) locate(i uint64) (*chunk[T], int) {
	j := i % uint64(r.size)
	switch {
	case j < minChunk:
		return &r.chunks[0], int(j)
	case j < maxChunk:
		h := bits.Len64(j) - 1
		return &r.chunks[h-minChunkLog+1], int(j - 1<<h)
	}
	return &r.chunks[j>>maxChunkLog+maxChunkLog-minChunkLog], int(j % maxChunk)
}

// at returns the slot of retained record i: read it, do not write it.
func (r *ring[T]) at(i uint64) *T {
	c, k := r.locate(i)
	return &c.slots[k]
}

// keep puts n beside the slot the next record goes in, which slot returned;
// a chunk keeps nothing until its first call.
func (r *ring[T]) keep(n recordNames) {
	c := &r.chunks[r.w]
	if c.spill == nil {
		c.spill = make([]recordNames, len(c.slots))
	}
	c.spill[r.off] = n
}

// kept returns what retained record i keeps beside its slot.
func (r *ring[T]) kept(i uint64) recordNames {
	if c, k := r.locate(i); c.spill != nil {
		return c.spill[k]
	}
	return recordNames{}
}

// each calls f on every allocated slot, retained or not.
func (r *ring[T]) each(f func(*T)) {
	for _, c := range r.chunks {
		for k := range c.slots {
			f(&c.slots[k])
		}
	}
}
