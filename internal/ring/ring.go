// Package ring holds what the flight and audit recorders share: the bounded
// ring their records live in, the Epoch that packs a slot's times into
// offsets (epoch.go), and the versioned-JSONL dump codec that serves those
// records to operators (dump.go).
package ring

// Ring holds the last records written to it, up to its capacity. Its memory
// follows its use: it starts empty, doubles in place as records arrive, and
// wraps once it reaches its capacity, so a node that records little holds
// little.
//
// A Ring is not synchronised. Each recorder guards its ring with the one lock
// that also covers what it does beside the write (stamping, a sink, per-kind
// counts), so that a record costs a single lock hold.
type Ring[T any] struct {
	size int    // capacity: the ring grows to this many slots, then wraps
	buf  []T    // len(buf) slots allocated so far, at most size
	next uint64 // records ever committed; the next record's sequence number
}

// minSlots is how many slots a ring's first record allocates (fewer if the
// capacity is smaller): growth by doubling starts from here.
const minSlots = 64

// New returns an empty ring holding the last size records; a size below one
// holds one.
func New[T any](size int) Ring[T] {
	return Ring[T]{size: max(size, 1)}
}

// Slot returns the slot the next record goes in, still holding the record it
// overwrites (if any). The caller builds the new record in place — every
// field, since nothing of the old one is cleared — and accepts it with
// Commit. Building in the slot matters for large records holding pointers:
// copying one in costs several times what writing its fields does.
//
// Every allocated slot is in use exactly when next == len(buf), and while the
// ring is still growing that is the only time there is no slot for the next
// record; a full ring passes through it once, on its first wrap, so its write
// costs one compare that is false ever after.
func (r *Ring[T]) Slot() *T {
	if r.next == uint64(len(r.buf)) {
		r.grow()
	}
	return &r.buf[r.next%uint64(len(r.buf))]
}

// grow doubles the ring in place, up to its capacity; at capacity it does
// nothing. The records keep their indices: below capacity the ring has not
// wrapped, so slot i holds record i. Not inlined: it runs a dozen times in a
// ring's life and its body would sit in the middle of every record's write.
//
//go:noinline
func (r *Ring[T]) grow() {
	n := min(max(2*len(r.buf), minSlots), r.size)
	if n == len(r.buf) {
		return
	}
	buf := make([]T, n)
	copy(buf, r.buf)
	r.buf = buf
}

// Commit accepts the record built in the last Slot.
func (r *Ring[T]) Commit() { r.next++ }

// Next returns how many records were ever committed, which is the sequence
// number the next record gets.
func (r *Ring[T]) Next() uint64 { return r.next }

// Retained returns how many records the ring holds; Next minus Retained were
// overwritten.
func (r *Ring[T]) Retained() uint64 { return min(r.next, uint64(len(r.buf))) }

// All yields the retained records, oldest first, each with its sequence
// number, in their slots: read them, do not write them. Use it as a
// range-over-func iterator.
func (r *Ring[T]) All(yield func(uint64, *T) bool) {
	size := uint64(len(r.buf))
	for i := r.next - r.Retained(); i < r.next; i++ {
		if !yield(i, &r.buf[i%size]) {
			return
		}
	}
}

// Collect returns the retained records, oldest first, each converted from
// its slot and sequence number by conv.
func Collect[T, R any](r *Ring[T], conv func(seq uint64, slot *T) R) []R {
	out := make([]R, 0, r.Retained())
	for seq, s := range r.All {
		out = append(out, conv(seq, s))
	}
	return out
}
