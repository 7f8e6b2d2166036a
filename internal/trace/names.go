package trace

import (
	"hash/maphash"
	"math"
)

// MaxNames is how many names a Names table holds: every uint16 index but 0.
const MaxNames = math.MaxUint16

// Names is a table of names — node, app and event names, rights, granting
// sets — each kept once and referred to by a uint16 index: 0 is "", and a
// name's index never changes. It is how the trace log and the node journal
// pack a record's strings. A name a full table cannot hold has no index: the
// caller keeps the record naming it aside. The zero value is an empty table;
// it allocates only when its first name is added. Not synchronised: the log
// holding it guards it.
//
// The table finds a name by its hash in slots, an open-addressed array of
// indices, rather than in a map: a name costs its slice element and four to
// eight bytes of slots, where a go1.24 map[string]uint16 of a few thousand
// names holds about 100 B a name, and more as names come and go. A journal
// keeping a name per record of a window of distinct peers would spend more
// on the map than its record saves.
type Names struct {
	names []string // names[i] is the name of index i; names[0] is ""
	slots []uint16 // a name's index at its hash, probing on; 0 is empty; at most half full
	seed  maphash.Seed
}

// Index returns s's index, adding s if it is new and the table is not full.
// ok is false when s is not "" and has no index.
func (t *Names) Index(s string) (i uint16, ok bool) {
	if s == "" {
		return 0, true
	}
	if t.slots == nil {
		t.names, t.slots, t.seed = []string{""}, make([]uint16, 16), maphash.MakeSeed()
	}
	mask := uint64(len(t.slots) - 1)
	j := maphash.String(t.seed, s) & mask
	for ; t.slots[j] != 0; j = (j + 1) & mask {
		if i = t.slots[j]; t.names[i] == s {
			return i, true
		}
	}
	if len(t.names) > MaxNames {
		return 0, false
	}
	i = uint16(len(t.names))
	t.names = append(t.names, s)
	if t.slots[j] = i; 2*len(t.names) > len(t.slots) {
		t.rehash()
	}
	return i, true
}

// rehash doubles the slots and puts every name back in them.
func (t *Names) rehash() {
	t.slots = make([]uint16, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for i, s := range t.names[1:] {
		j := maphash.String(t.seed, s) & mask
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = uint16(i + 1)
	}
}

// Name returns the name of index i, which Index returned.
func (t *Names) Name(i uint16) string {
	if i == 0 {
		return ""
	}
	return t.names[i]
}

// Len returns how many names the table holds, "" aside.
func (t *Names) Len() int { return max(len(t.names)-1, 0) }
