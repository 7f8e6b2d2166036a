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
// be the slice's tail, each at its own index, next the slice's length and
// retained the tail's. On the way a ring may never hold more than
// max(64, 2k) slots after k records nor more than its capacity (nor fewer
// than it retains), and once it is full no write allocates. A capacity below
// one is one.
func TestRingAgainstModel(t *testing.T) {
	if r := newRing[ringRec](0); r.size != 1 {
		t.Fatalf("newRing(0) holds %d records, want 1", r.size)
	}
	for _, size := range []int{1, 16, 63, 64, 65, 4096} {
		r := newRing[ringRec](size)
		var model []ringRec
		check := func() {
			t.Helper()
			want := model[max(0, len(model)-size):]
			var got []ringRec
			for i := r.oldest(); i < r.next; i++ {
				if p := r.at(i); p.Seq != i {
					t.Fatalf("size %d after %d records: record %d is at index %d", size, len(model), p.Seq, i)
				}
				got = append(got, *r.at(i))
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
			model = append(model, *s)
			r.commit()
			if len(r.buf) > max(minSlots, 2*k) || len(r.buf) > size || len(r.buf) < min(k, size) {
				t.Fatalf("size %d after %d records: ring holds %d slots", size, k, len(r.buf))
			}
			if k%max(1, size/4) == 0 {
				check()
			}
		}
		check()
		if a := testing.AllocsPerRun(100, func() {
			*r.slot() = ringRec{Node: "n", Note: "x"}
			r.commit()
		}); a != 0 {
			t.Errorf("size %d: a full ring's write allocates %.1f times, want 0", size, a)
		}
	}
}
