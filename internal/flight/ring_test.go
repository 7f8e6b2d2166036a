package flight

import (
	"slices"
	"strconv"
	"testing"
)

// ringRec stands in for a window's slot: a value holding a pointer.
type ringRec struct {
	Node string
	Seq  uint64
	Note string
}

// TestRingAgainstModel writes rings of each capacity several wraps long
// beside a flat slice of everything ever written: the retained records must
// be the slice's tail, each at its own index and at the address its slot had
// when it was written, next the slice's length and retained the tail's. Every
// third record keeps names beside its slot, and each retained record must
// keep exactly its own. On the way a ring may hold at most its capacity, at
// least what it retains, and fewer than one chunk's slots unused; once it is
// full no write allocates. A capacity below one is one.
func TestRingAgainstModel(t *testing.T) {
	if r := newRing[ringRec](0); r.size != 1 {
		t.Fatalf("newRing(0) holds %d records, want 1", r.size)
	}
	for _, size := range []int{1, 16, 63, 64, 65, 129, 1500, 4096} {
		r := newRing[ringRec](size)
		var model []ringRec
		var addr []*ringRec
		check := func() {
			t.Helper()
			want := model[max(0, len(model)-size):]
			var got []ringRec
			for i := r.oldest(); i < r.next; i++ {
				p := r.at(i)
				if p.Seq != i || p != addr[i] {
					t.Fatalf("size %d after %d records: record %d is at index %d, moved: %v", size, len(model), p.Seq, i, p != addr[i])
				}
				if n := r.kept(i).app; (i%3 == 0) != (n == p.Note) || i%3 != 0 && n != "" {
					t.Fatalf("size %d after %d records: record %d keeps %q", size, len(model), i, n)
				}
				got = append(got, *p)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("size %d after %d records: the retained records are not the last %d written", size, len(model), len(want))
			}
			if r.next != uint64(len(model)) || r.retained() != uint64(len(want)) {
				t.Fatalf("size %d after %d records: next %d, retained %d", size, len(model), r.next, r.retained())
			}
		}
		check()
		for k := 1; k <= 3*size+5; k++ {
			s := r.slot()
			*s = ringRec{Node: "n", Seq: r.next, Note: strconv.Itoa(k % 7)}
			model, addr = append(model, *s), append(addr, s)
			kept := s.Seq%3 == 0
			if kept {
				r.keep(recordNames{app: s.Note})
			}
			r.commit(kept)
			last := len(r.chunks[len(r.chunks)-1].slots)
			if r.slots > size || uint64(r.slots) < r.retained() || r.slots-int(r.retained()) >= last {
				t.Fatalf("size %d after %d records: ring holds %d slots for %d records, its last chunk %d", size, k, r.slots, r.retained(), last)
			}
			if k%max(1, size/4) == 0 {
				check()
			}
		}
		check()
		if a := testing.AllocsPerRun(100, func() {
			*r.slot() = ringRec{Node: "n", Note: "x"}
			r.commit(false)
		}); a != 0 {
			t.Errorf("size %d: a full ring's write allocates %.1f times, want 0", size, a)
		}
	}
}

// TestRingChunks pins the chunk sizes: 64, 64, 128, 256, 512, then 1024
// each, the last cut to the capacity; a full 8192-slot window takes 12, and
// one array of headers made for all of them. Each chunk starts at the slot
// chunkStart says.
func TestRingChunks(t *testing.T) {
	for _, tc := range []struct {
		size int
		want []int
	}{
		{1, []int{1}},
		{100, []int{64, 36}},
		{3000, []int{64, 64, 128, 256, 512, 1024, 952}},
		{8192, []int{64, 64, 128, 256, 512, 1024, 1024, 1024, 1024, 1024, 1024, 1024}},
	} {
		r := newRing[ringRec](tc.size)
		for range tc.size {
			r.slot()
			r.commit(false)
		}
		var got []int
		for k, c := range r.chunks {
			got = append(got, len(c.slots))
			if &c.slots[0] != r.at(uint64(chunkStart(k))) {
				t.Errorf("size %d: slot %d is not chunk %d's first", tc.size, chunkStart(k), k)
			}
		}
		if !slices.Equal(got, tc.want) || cap(r.chunks) != len(tc.want) {
			t.Errorf("size %d: chunks %v under %d headers, want %v", tc.size, got, cap(r.chunks), tc.want)
		}
	}
}
