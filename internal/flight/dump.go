package flight

// Dump format: versioned JSONL. The first line is a header object
// identifying the format version and the nodes covered; every following
// line is one Record (with its node name inline, so merged dumps are just
// longer files of the same shape). Version bumps are additive: a reader
// rejects dumps from a newer major version instead of misparsing them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// DumpVersion is the current dump format version.
const DumpVersion = 1

// Header is the first JSONL line of a dump.
type Header struct {
	// Flight is the format version (DumpVersion at write time).
	Flight int `json:"flight"`
	// Nodes lists the nodes whose records follow (one for a node dump,
	// several for a merged dump).
	Nodes []string `json:"nodes"`
	// Dropped counts records lost to ring overwrite across all nodes.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump is a parsed flight dump: one node's ring snapshot or a merge of
// several.
type Dump struct {
	Header  Header
	Records []Record
}

// Dump snapshots the recorder as a single-node Dump. The records and the
// drop count are read under one hold of the lock, so on a live node Dropped
// counts exactly the accepted records the dump does not list.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	recs, total := r.snapshot(), r.next
	r.mu.Unlock()
	return &Dump{
		Header:  Header{Flight: DumpVersion, Nodes: []string{r.node}, Dropped: total - uint64(len(recs))},
		Records: recs,
	}
}

// WriteDump writes the recorder's current contents as JSONL.
func (r *Recorder) WriteDump(w io.Writer) error { return r.Dump().Write(w) }

// Write emits the dump as JSONL: header line, then one record per line.
func (d *Dump) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := d.Header
	hdr.Flight = DumpVersion
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range d.Records {
		if err := enc.Encode(&d.Records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDump parses a JSONL dump written by Write.
func ReadDump(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("flight: empty dump")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("flight: bad dump header: %w", err)
	}
	if hdr.Flight < 1 || hdr.Flight > DumpVersion {
		return nil, fmt.Errorf("flight: unsupported dump version %d (reader supports <= %d)", hdr.Flight, DumpVersion)
	}
	d := &Dump{Header: hdr}
	line := 1
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("flight: dump line %d: %w", line, err)
		}
		if rec.Node == "" {
			return nil, fmt.Errorf("flight: dump line %d: record without node", line)
		}
		d.Records = append(d.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// Merge combines dumps into one. Records keep their per-node sequence
// numbers and local timestamps (alignment happens later); nodes are the
// sorted union. Records are ordered by node, then sequence — a stable,
// deterministic layout for merged files.
func Merge(dumps ...*Dump) *Dump {
	out := &Dump{Header: Header{Flight: DumpVersion}}
	seen := make(map[string]bool)
	for _, d := range dumps {
		if d == nil {
			continue
		}
		for _, n := range d.Header.Nodes {
			if !seen[n] {
				seen[n] = true
				out.Header.Nodes = append(out.Header.Nodes, n)
			}
		}
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
