package flight

// Dump format: versioned JSONL. The first line is a header object naming the
// format version under the key "journal" and the nodes covered; every
// following line is one record, with its node inline, so merged dumps are
// just longer files of the same shape. A reader of an older format finds no
// version it knows in the header and fails instead of misparsing it.

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
	// Journal is the format version (DumpVersion at write time).
	Journal int `json:"journal"`
	// Nodes lists the nodes whose records follow (one for a node dump,
	// several for a merged dump).
	Nodes []string `json:"nodes"`
	// Dropped counts records lost to overwrite across all nodes.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Dump is one node's journal or a merge of several.
type Dump struct {
	Header  Header
	Records []Record
}

// Dump snapshots the recorder as a single-node Dump, its records in Seq
// order. The records and the drop count are read under one hold of the
// lock, so on a live node Dropped counts exactly the accepted records the
// dump does not list.
func (r *Recorder) Dump() *Dump {
	r.mu.Lock()
	recs := make([]Record, 0, r.retained())
	for rec := range r.each {
		recs = append(recs, *rec)
	}
	dropped := r.seq - uint64(len(recs))
	r.mu.Unlock()
	return &Dump{Header: Header{Journal: DumpVersion, Nodes: []string{r.node}, Dropped: dropped}, Records: recs}
}

// WriteDump writes the recorder's current contents as JSONL (the
// /debug/journal endpoint body).
func (r *Recorder) WriteDump(w io.Writer) error { return r.Dump().Write(w) }

// Write emits the dump as JSONL: the header line, then one record per line.
func (d *Dump) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&d.Header); err != nil {
		return err
	}
	for i := range d.Records {
		if err := enc.Encode(&d.Records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDump parses a dump written by Dump.Write, or a headerless stream of
// records (a Writer sink's output, the `acnode -audit.jsonl` file), whose
// header it makes up: the nodes its records name, nothing dropped. It
// rejects a dump from a newer version instead of misparsing it, skips blank
// lines, rejects a record without a node, and names the line it stopped at.
func ReadDump(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	d := &Dump{}
	headed := false
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if line == 1 {
			if err := json.Unmarshal(b, &d.Header); err != nil {
				return nil, fmt.Errorf("flight: bad dump header: %w", err)
			}
			if headed = d.Header.Journal != 0; headed {
				if v := d.Header.Journal; v < 1 || v > DumpVersion {
					return nil, fmt.Errorf("flight: unsupported dump version %d (reader supports 1..%d)", v, DumpVersion)
				}
				continue
			}
		}
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
	if !headed {
		if len(d.Records) == 0 {
			return nil, fmt.Errorf("flight: empty dump")
		}
		d.Header = Header{Journal: DumpVersion}
		for i := range d.Records {
			d.Header.Nodes = nodes(d.Header.Nodes, []string{d.Records[i].Node})
		}
	}
	return d, nil
}

// Merge combines dumps into one: the sorted union of their nodes, their drop
// counts summed, their records ordered by node, then sequence — the
// deterministic layout of a merged dump. Records keep their local
// timestamps; aligning clocks across nodes is the reader's business. Nil
// dumps are skipped.
func Merge(dumps ...*Dump) *Dump {
	out := &Dump{Header: Header{Journal: DumpVersion}}
	for _, d := range dumps {
		if d != nil {
			out.Header.Nodes = nodes(out.Header.Nodes, d.Header.Nodes)
			out.Header.Dropped += d.Header.Dropped
			out.Records = append(out.Records, d.Records...)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		a, b := &out.Records[i], &out.Records[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// nodes returns the sorted union of two node lists: a merged header's nodes.
func nodes(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, n := range b {
		if i := sort.SearchStrings(out, n); i == len(out) || out[i] != n {
			out = append(out, "")
			copy(out[i+1:], out[i:])
			out[i] = n
		}
	}
	return out
}
