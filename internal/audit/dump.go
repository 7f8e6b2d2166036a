package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// DumpVersion gates the JSONL dump format.
const DumpVersion = 1

// Header is the first line of an audit dump.
type Header struct {
	// Audit is the format version; readers reject other values. The key
	// also distinguishes audit dumps from flight dumps ("flight") when
	// tools sniff mixed inputs.
	Audit     int      `json:"audit"`
	Nodes     []string `json:"nodes"`
	Total     uint64   `json:"total"`               // records ever accepted across nodes
	Decisions uint64   `json:"decisions"`           // decision-kind records ever accepted
	Responses uint64   `json:"responses,omitempty"` // response-kind records ever accepted
	Dropped   uint64   `json:"dropped,omitempty"`   // accepted but overwritten before the dump
}

// Dump is a self-describing set of audit records from one or more nodes.
type Dump struct {
	Header  Header
	Records []Record
}

// Dump snapshots the recorder as a one-node dump with drop accounting. The
// records and the header's counts are read under one hold of the lock, so on
// a live node Total minus Dropped is exactly the number of records listed.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	recs := r.snapshot()
	total, decisions, responses := r.next, r.decisions, r.responses
	r.mu.Unlock()
	return &Dump{
		Header: Header{
			Audit:     DumpVersion,
			Nodes:     []string{r.node},
			Total:     total,
			Decisions: decisions,
			Responses: responses,
			Dropped:   total - uint64(len(recs)),
		},
		Records: recs,
	}
}

// WriteDump writes the dump as JSONL: the header line, then one record per
// line.
func (d *Dump) WriteDump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d.Header); err != nil {
		return err
	}
	for i := range d.Records {
		if err := enc.Encode(&d.Records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDump snapshots the recorder and writes it (the /debug/audit
// endpoint body).
func (r *Recorder) WriteDump(w io.Writer) error { return r.Dump().WriteDump(w) }

// ReadDump parses a JSONL dump produced by WriteDump.
func ReadDump(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("audit dump: empty input")
	}
	var d Dump
	if err := json.Unmarshal(sc.Bytes(), &d.Header); err != nil {
		return nil, fmt.Errorf("audit dump header: %w", err)
	}
	if d.Header.Audit != DumpVersion {
		return nil, fmt.Errorf("audit dump version %d, want %d", d.Header.Audit, DumpVersion)
	}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("audit dump record %d: %w", len(d.Records)+1, err)
		}
		d.Records = append(d.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Merge combines per-node dumps into one, records ordered by node then
// ring sequence (each node's Seq is monotonic in its own emission order).
func Merge(dumps ...*Dump) *Dump {
	out := &Dump{Header: Header{Audit: DumpVersion}}
	for _, d := range dumps {
		if d == nil {
			continue
		}
		out.Header.Nodes = append(out.Header.Nodes, d.Header.Nodes...)
		out.Header.Total += d.Header.Total
		out.Header.Decisions += d.Header.Decisions
		out.Header.Responses += d.Header.Responses
		out.Header.Dropped += d.Header.Dropped
		out.Records = append(out.Records, d.Records...)
	}
	sort.Strings(out.Header.Nodes)
	sort.SliceStable(out.Records, func(i, j int) bool {
		a, b := &out.Records[i], &out.Records[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}
