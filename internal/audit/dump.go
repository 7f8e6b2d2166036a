package audit

import (
	"io"

	"wanac/internal/ring"
)

// Header is the first line of an audit dump (see internal/ring for the
// format).
type Header struct {
	// Audit is the format version. The key also distinguishes audit dumps
	// from flight dumps ("flight") when tools sniff mixed inputs.
	Audit     int      `json:"audit"`
	Nodes     []string `json:"nodes"`
	Total     uint64   `json:"total"`               // records ever accepted across nodes
	Decisions uint64   `json:"decisions"`           // decision-kind records ever accepted
	Responses uint64   `json:"responses,omitempty"` // response-kind records ever accepted
	Dropped   uint64   `json:"dropped,omitempty"`   // accepted but overwritten before the dump
}

// Dump is a self-describing set of audit records from one or more nodes.
// Write emits it as JSONL.
type Dump = ring.Dump[Header, Record]

var format = ring.Format[Header, Record]{
	Name:    "audit",
	Version: func(h *Header) int { return h.Audit },
	Key:     func(r *Record) (string, uint64) { return r.Node, r.Seq },
}

// Dump snapshots the recorder as a one-node dump with drop accounting. The
// records and the header's counts are read under one hold of the lock, so on
// a live node Total minus Dropped is exactly the number of records listed.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	recs := ring.Collect(&r.ring, r.unpack)
	total, decisions, responses := r.ring.Next(), r.decisions, r.responses
	r.mu.Unlock()
	return &Dump{
		Header: Header{
			Audit:     ring.DumpVersion,
			Nodes:     []string{r.node},
			Total:     total,
			Decisions: decisions,
			Responses: responses,
			Dropped:   total - uint64(len(recs)),
		},
		Records: recs,
	}
}

// WriteDump snapshots the recorder and writes it (the /debug/audit
// endpoint body).
func (r *Recorder) WriteDump(w io.Writer) error { return r.Dump().Write(w) }

// ReadDump parses a JSONL dump written by Dump.Write.
func ReadDump(r io.Reader) (*Dump, error) { return format.Read(r) }

// ReadStream parses a headerless record stream (a Writer sink's output, the
// `acnode -audit.jsonl` file) into a dump whose header counts every record
// it holds, by kind.
func ReadStream(r io.Reader) (*Dump, error) {
	recs, err := format.ReadRecords(r)
	if err != nil {
		return nil, err
	}
	d := &Dump{Header: Header{Audit: ring.DumpVersion, Total: uint64(len(recs))}, Records: recs}
	nodes := make([]string, len(recs))
	for i := range recs {
		nodes[i] = recs[i].Node
		switch recs[i].Kind {
		case KindDecision:
			d.Header.Decisions++
		case KindResponse:
			d.Header.Responses++
		}
	}
	d.Header.Nodes = ring.Nodes(nodes)
	return d, nil
}

// Merge combines dumps into one: the sorted union of their nodes, their
// counts summed, their records ordered by node, then ring sequence.
func Merge(dumps ...*Dump) *Dump {
	return format.Merge(Header{Audit: ring.DumpVersion}, func(into, from *Header) {
		into.Nodes = ring.Nodes(into.Nodes, from.Nodes)
		into.Total += from.Total
		into.Decisions += from.Decisions
		into.Responses += from.Responses
		into.Dropped += from.Dropped
	}, dumps)
}
