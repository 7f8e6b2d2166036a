package flight

import (
	"io"

	"wanac/internal/ring"
)

// Header is the first JSONL line of a flight dump (see internal/ring for the
// format).
type Header struct {
	// Flight is the format version (ring.DumpVersion at write time).
	Flight int `json:"flight"`
	// Nodes lists the nodes whose records follow (one for a node dump,
	// several for a merged dump).
	Nodes []string `json:"nodes"`
	// Dropped counts records lost to ring overwrite across all nodes.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump is a parsed flight dump: one node's ring snapshot or a merge of
// several. Write emits it as JSONL.
type Dump = ring.Dump[Header, Record]

var format = ring.Format[Header, Record]{
	Name:    "flight",
	Version: func(h *Header) int { return h.Flight },
	Key:     func(r *Record) (string, uint64) { return r.Node, r.Seq },
}

// Dump snapshots the recorder as a single-node Dump. The records and the
// drop count are read under one hold of the lock, so on a live node Dropped
// counts exactly the accepted records the dump does not list.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	recs, total := ring.Collect(&r.ring, r.unpack), r.ring.Next()
	r.mu.Unlock()
	return &Dump{
		Header:  Header{Flight: ring.DumpVersion, Nodes: []string{r.node}, Dropped: total - uint64(len(recs))},
		Records: recs,
	}
}

// WriteDump writes the recorder's current contents as JSONL.
func (r *Recorder) WriteDump(w io.Writer) error { return r.Dump().Write(w) }

// ReadDump parses a JSONL dump written by Dump.Write.
func ReadDump(r io.Reader) (*Dump, error) { return format.Read(r) }

// Merge combines dumps into one: the sorted union of their nodes, their drop
// counts summed, their records ordered by node, then sequence.
func Merge(dumps ...*Dump) *Dump {
	return format.Merge(Header{Flight: ring.DumpVersion}, func(into, from *Header) {
		into.Nodes = ring.Nodes(into.Nodes, from.Nodes)
		into.Dropped += from.Dropped
	}, dumps)
}
