package flight

// ring holds the last records written to it, up to its capacity: one of a
// journal's two windows. Its memory follows its use: it starts empty, doubles
// in place as records arrive, and wraps once it reaches its capacity, so a
// window that records little holds little and one that records nothing holds
// nothing.
//
// Beside its slots a ring keeps a spill: the names of the records whose
// names the journal's table cannot hold (keep), an entry per allocated slot,
// made at the first such record, grown with the slots and cleared as its
// slot is taken by one that keeps none.
//
// A ring is not synchronised: the Recorder guards both of its windows with
// the one lock that also covers what it does beside the write (stamping,
// sequencing, counting, a sink), so that a record costs a single lock hold.
type ring[T any] struct {
	size  int           // capacity: the ring grows to this many slots, then wraps
	buf   []T           // len(buf) slots allocated so far, at most size
	next  uint64        // records ever committed to this ring
	spill []recordNames // record i's names beside its slot; nil until keep
}

// minSlots is how many slots a ring's first record allocates (fewer if the
// capacity is smaller): growth by doubling starts from here.
const minSlots = 64

// newRing returns an empty ring holding the last size records; a size below
// one holds one.
func newRing[T any](size int) ring[T] {
	return ring[T]{size: max(size, 1)}
}

// slot returns the slot the next record goes in, still holding the record it
// overwrites (if any). The caller builds the new record in place — every
// field, since nothing of the old one is cleared — and accepts it with
// commit. Building in the slot matters for large records holding pointers:
// copying one in costs several times what writing its fields does.
//
// Every allocated slot is in use exactly when next == len(buf), and while the
// ring is still growing that is the only time there is no slot for the next
// record; a full ring passes through it once, on its first wrap, so its write
// costs one compare that is false ever after.
func (r *ring[T]) slot() *T {
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
func (r *ring[T]) grow() {
	n := min(max(2*len(r.buf), minSlots), r.size)
	if n == len(r.buf) {
		return
	}
	buf := make([]T, n)
	copy(buf, r.buf)
	r.buf = buf
	if r.spill != nil {
		spill := make([]recordNames, n)
		copy(spill, r.spill)
		r.spill = spill
	}
}

// commit accepts the record built in the last slot. Unless the record kept
// names there (keep), it frees what the record it overwrote kept beside the
// slot.
func (r *ring[T]) commit(kept bool) {
	if !kept && r.spill != nil {
		r.spill[r.next%uint64(len(r.buf))] = recordNames{}
	}
	r.next++
}

// retained returns how many records the ring holds; next minus retained
// were overwritten.
func (r *ring[T]) retained() uint64 { return min(r.next, uint64(len(r.buf))) }

// oldest returns the index of the oldest retained record: the retained
// records are at(oldest()) to at(next-1).
func (r *ring[T]) oldest() uint64 { return r.next - r.retained() }

// at returns the slot of retained record i: read it, do not write it.
func (r *ring[T]) at(i uint64) *T { return &r.buf[i%uint64(len(r.buf))] }

// keep puts n beside the slot the next record goes in, which slot returned;
// a ring keeps nothing until its first call.
func (r *ring[T]) keep(n recordNames) {
	if r.spill == nil {
		r.spill = make([]recordNames, len(r.buf))
	}
	r.spill[r.next%uint64(len(r.buf))] = n
}

// kept returns what retained record i keeps beside its slot.
func (r *ring[T]) kept(i uint64) *recordNames { return &r.spill[i%uint64(len(r.buf))] }
