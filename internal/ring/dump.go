package ring

// Dump format: versioned JSONL. The first line is a header object naming the
// format version and the nodes covered; every following line is one record,
// with its node inline, so merged dumps are just longer files of the same
// shape. Each kind of dump has its own header type, whose version key
// ("flight", "audit") also tells the kinds apart.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// DumpVersion is the current dump format version.
const DumpVersion = 1

// Dump is one node's ring or a merge of several.
type Dump[H, T any] struct {
	Header  H
	Records []T
}

// Write emits the dump as JSONL: the header line, then one record per line.
func (d *Dump[H, T]) Write(w io.Writer) error {
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

// Format is what the codec needs to know about one kind of dump.
type Format[H, T any] struct {
	// Name prefixes errors: "flight", "audit".
	Name string
	// Version reads the header's format version.
	Version func(*H) int
	// Key reads a record's node and its per-node sequence number.
	Key func(*T) (node string, seq uint64)
}

// Read parses a dump written by Dump.Write. It rejects a dump from a newer
// version instead of misparsing it, skips blank lines, rejects a record
// without a node, and names the line it stopped at.
func (f Format[H, T]) Read(r io.Reader) (*Dump[H, T], error) {
	sc := scanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s: empty dump", f.Name)
	}
	d := &Dump[H, T]{}
	if err := json.Unmarshal(sc.Bytes(), &d.Header); err != nil {
		return nil, fmt.Errorf("%s: bad dump header: %w", f.Name, err)
	}
	if v := f.Version(&d.Header); v < 1 || v > DumpVersion {
		return nil, fmt.Errorf("%s: unsupported dump version %d (reader supports 1..%d)", f.Name, v, DumpVersion)
	}
	recs, err := f.records(sc, 1)
	if err != nil {
		return nil, err
	}
	d.Records = recs
	return d, nil
}

// ReadRecords parses a headerless stream of records, one per line, under
// Read's rules.
func (f Format[H, T]) ReadRecords(r io.Reader) ([]T, error) {
	return f.records(scanner(r), 0)
}

func scanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return sc
}

// records reads the lines left in sc; line is how many were read before.
func (f Format[H, T]) records(sc *bufio.Scanner, line int) ([]T, error) {
	var recs []T
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: dump line %d: %w", f.Name, line, err)
		}
		if node, _ := f.Key(&rec); node == "" {
			return nil, fmt.Errorf("%s: dump line %d: record without node", f.Name, line)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// Merge combines dumps under hdr, add folding each dump's header into it,
// with their records ordered by node, then sequence: the deterministic
// layout of a merged dump. Records keep their local timestamps; aligning
// clocks across nodes is the reader's business. Nil dumps are skipped.
func (f Format[H, T]) Merge(hdr H, add func(into, from *H), dumps []*Dump[H, T]) *Dump[H, T] {
	out := &Dump[H, T]{Header: hdr}
	for _, d := range dumps {
		if d != nil {
			add(&out.Header, &d.Header)
			out.Records = append(out.Records, d.Records...)
		}
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		an, as := f.Key(&out.Records[i])
		bn, bs := f.Key(&out.Records[j])
		if an != bn {
			return an < bn
		}
		return as < bs
	})
	return out
}

// Nodes returns the sorted union of node lists: a merged header's nodes.
func Nodes(lists ...[]string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, n := range l {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}
