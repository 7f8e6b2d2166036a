package ring

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// rec stands in for a recorder's record: a value holding a pointer.
type rec struct {
	Node string `json:"node"`
	Seq  uint64 `json:"seq"`
	Note string `json:"note,omitempty"`
}

type header struct {
	V     int      `json:"v"`
	Nodes []string `json:"nodes"`
}

var format = Format[header, rec]{
	Name:    "test",
	Version: func(h *header) int { return h.V },
	Key:     func(r *rec) (string, uint64) { return r.Node, r.Seq },
}

// TestRingAgainstModel writes rings of each capacity several wraps long
// beside a flat slice of everything ever written: All and Collect must be
// the slice's tail, each record with its own sequence number, Next the
// slice's length and Retained the tail's. On the way a
// ring may never hold more than max(64, 2k) slots after k records nor more
// than its capacity (nor fewer than it retains), and once it is full no
// write allocates. A capacity below one is one.
func TestRingAgainstModel(t *testing.T) {
	if r := New[rec](0); r.size != 1 {
		t.Fatalf("New(0) holds %d records, want 1", r.size)
	}
	for _, size := range []int{1, 16, 63, 64, 65, 4096} {
		r := New[rec](size)
		var model []rec
		check := func() {
			t.Helper()
			want := model[max(0, len(model)-size):]
			var inPlace []rec
			for seq, p := range r.All {
				if seq != p.Seq {
					t.Fatalf("size %d after %d records: All yields record %d as %d", size, len(model), p.Seq, seq)
				}
				inPlace = append(inPlace, *p)
			}
			collected := Collect(&r, func(seq uint64, p *rec) rec { return rec{Node: p.Node, Seq: seq, Note: p.Note} })
			if !slices.Equal(collected, want) || !slices.Equal(inPlace, want) {
				t.Fatalf("size %d after %d records: Collect or All is not the last %d written", size, len(model), len(want))
			}
			if r.Next() != uint64(len(model)) || r.Retained() != uint64(len(want)) {
				t.Fatalf("size %d after %d records: Next %d, Retained %d", size, len(model), r.Next(), r.Retained())
			}
		}
		check()
		for k := 1; k <= 3*size+5; k++ {
			s := r.Slot()
			*s = rec{Node: "n", Seq: r.Next(), Note: strconv.Itoa(k % 7)}
			model = append(model, *s)
			r.Commit()
			if len(r.buf) > max(minSlots, 2*k) || len(r.buf) > size || len(r.buf) < min(k, size) {
				t.Fatalf("size %d after %d records: ring holds %d slots", size, k, len(r.buf))
			}
			if k%max(1, size/4) == 0 {
				check()
			}
		}
		check()
		if a := testing.AllocsPerRun(100, func() {
			*r.Slot() = rec{Node: "n", Note: "x"}
			r.Commit()
		}); a != 0 {
			t.Errorf("size %d: a full ring's write allocates %.1f times, want 0", size, a)
		}
	}
}

// TestDumpRoundTrip writes a dump and reads it back unchanged, blank lines
// skipped.
func TestDumpRoundTrip(t *testing.T) {
	d := &Dump[header, rec]{Header: header{V: 1, Nodes: []string{"a"}}, Records: []rec{{"a", 0, "x"}, {"a", 1, ""}}}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n\n")
	if back, err := format.Read(&buf); err != nil || !slices.Equal(back.Header.Nodes, d.Header.Nodes) || !slices.Equal(back.Records, d.Records) {
		t.Fatalf("read back %+v (%v), want %+v", back, err, d)
	}
}

// TestReadRejects covers each rule a reader enforces, and that errors name
// the line.
func TestReadRejects(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", "empty dump"},
		{"not json\n", "bad dump header"},
		{`{"v":0}` + "\n", "unsupported dump version 0"},
		{`{"v":2}` + "\n", "unsupported dump version 2"},
		{`{"v":1}` + "\n" + `{"node":"a"}` + "\n\n" + `{"seq":3}` + "\n", "line 4: record without node"},
		{`{"v":1}` + "\n" + `{"node":1}` + "\n", "line 2"},
	} {
		if _, err := format.Read(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Read(%q) = %v, want an error containing %q", c.in, err, c.want)
		}
	}
	if _, err := format.ReadRecords(strings.NewReader(`{"node":"a"}` + "\n" + `{"seq":1}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2: record without node") {
		t.Errorf("ReadRecords of a node-less line = %v", err)
	}
}

func TestMergeAndNodes(t *testing.T) {
	a := &Dump[header, rec]{Header: header{Nodes: []string{"b", "a"}}, Records: []rec{{"b", 1, ""}, {"a", 2, ""}, {"a", 1, "first"}}}
	b := &Dump[header, rec]{Header: header{Nodes: []string{"b"}}, Records: []rec{{"b", 0, ""}, {"a", 1, "second"}}}
	m := format.Merge(header{V: 1}, func(into, from *header) { into.Nodes = Nodes(into.Nodes, from.Nodes) }, []*Dump[header, rec]{a, nil, b})
	want := []rec{{"a", 1, "first"}, {"a", 1, "second"}, {"a", 2, ""}, {"b", 0, ""}, {"b", 1, ""}}
	if !slices.Equal(m.Records, want) || m.Header.V != 1 || !slices.Equal(m.Header.Nodes, []string{"a", "b"}) {
		t.Fatalf("merged %+v, want records %v under nodes a,b", m, want)
	}
	if got := Nodes([]string{"m1", "h0"}, nil, []string{"h0", "m0"}); !slices.Equal(got, []string{"h0", "m0", "m1"}) {
		t.Fatalf("Nodes = %v", got)
	}
}

// TestEpochEdges: the zero time is Never and back; a time with a monotonic
// reading comes back as its wall reading; and times past ±292 years of the
// epoch clamp, in order, short of Never, instead of wrapping.
func TestEpochEdges(t *testing.T) {
	var e Epoch
	if e.Offset(time.Time{}) != Never || !e.Time(Never).IsZero() {
		t.Fatal("the zero time does not round-trip through Never")
	}
	now := time.Now()
	if got := e.Time(e.Offset(now)); got != now.Round(0) {
		t.Fatalf("%v came back as %v, want its wall reading", now, got)
	}
	past, future := e.Offset(now.AddDate(-500, 0, 0)), e.Offset(now.AddDate(500, 0, 0))
	if !(past < 0 && 0 < future && future < Never) || e.Time(future).IsZero() {
		t.Fatalf("500 years either side read %d and %d", past, future)
	}
}
