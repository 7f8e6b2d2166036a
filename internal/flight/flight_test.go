package flight

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

func fixedClock(at time.Time) func() time.Time {
	return func() time.Time { return at }
}

func TestRecorderAssignsSeqAndOverwritesOldest(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	r := NewRecorder("n0", 16, fixedClock(base))
	for i := 0; i < 40; i++ {
		r.Record(Record{Kind: KindProtocol, Type: "query-sent"})
	}
	if got := r.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot len = %d, want ring size 16", len(snap))
	}
	for i, rec := range snap {
		want := uint64(40 - 16 + i)
		if rec.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
		if rec.Node != "n0" {
			t.Fatalf("snap[%d].Node = %q, want n0", i, rec.Node)
		}
		if !rec.T.Equal(base) {
			t.Fatalf("snap[%d].T = %v, want recorder clock %v", i, rec.T, base)
		}
	}
}

func TestRecorderKeepsCallerTimestamp(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	r := NewRecorder("n0", 16, fixedClock(base))
	at := base.Add(42 * time.Second)
	r.Record(Record{T: at, Kind: KindNet, Type: "link-cut"})
	if got := r.Snapshot()[0].T; !got.Equal(at) {
		t.Fatalf("T = %v, want caller-supplied %v", got, at)
	}
}

func TestRecordEventClassifiesQuorum(t *testing.T) {
	r := NewRecorder("m0", 16, nil)
	r.RecordEvent(trace.Event{Type: trace.EventUpdateQuorum, Seq: wire.UpdateSeq{Origin: "m0", Counter: 3}})
	r.RecordEvent(trace.Event{Type: trace.EventAccessAllowed, Note: "quorum", Trace: 7})
	r.RecordEvent(trace.Event{Type: trace.EventAccessAllowed}) // by type alone
	r.RecordEvent(trace.Event{Type: trace.EventQuerySent, Trace: 7})
	r.RecordEvent(trace.Event{Type: trace.EventCacheHit})
	snap := r.Snapshot()
	wantKinds := []Kind{KindQuorum, KindQuorum, KindQuorum, KindProtocol, KindProtocol}
	for i, k := range wantKinds {
		if snap[i].Kind != k {
			t.Fatalf("record %d (%s) kind = %v, want %v", i, snap[i].Type, snap[i].Kind, k)
		}
	}
	if snap[0].Origin != "m0" || snap[0].Counter != 3 {
		t.Fatalf("update seq not carried: %+v", snap[0])
	}
	if snap[1].Trace != 7 {
		t.Fatalf("trace id not carried: %+v", snap[1])
	}
}

// TestRecordEventOverwritesTheWholeSlot: RecordEvent builds its record in
// the ring slot, so nothing of the record it overwrites may survive — in
// particular the fields a protocol event never sets.
func TestRecordEventOverwritesTheWholeSlot(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	r := NewRecorder("h0", 16, fixedClock(base))
	for i := 0; i < 16; i++ {
		r.Record(Record{T: base, Kind: KindTransport, Type: "up", Trace: 9, App: "old", User: "old",
			Origin: "old", Counter: 9, Peer: "old", Note: "old"})
	}
	at := base.Add(time.Second)
	r.RecordEvent(trace.Event{Time: at, Node: "ignored", Type: trace.EventCacheHit, App: "app", User: "alice", Trace: 7})
	r.RecordEvent(trace.Event{Type: trace.EventUpdateIssued, Seq: wire.UpdateSeq{Origin: "m0", Counter: 3}, Note: "n"})
	snap := r.Snapshot()
	want := []Record{
		{Seq: 16, T: at, Node: "h0", Kind: KindProtocol, Type: "cache-hit", Trace: 7, App: "app", User: "alice"},
		{Seq: 17, T: base, Node: "h0", Kind: KindProtocol, Type: "update-issued", Origin: "m0", Counter: 3, Note: "n"},
	}
	for i, w := range want {
		if got := snap[len(snap)-2+i]; got != w {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestTeeRecordsAndForwards: the tee records every event but a cache hit
// and forwards every event, a cache hit included.
func TestTeeRecordsAndForwards(t *testing.T) {
	r := NewRecorder("h0", 16, nil)
	col := trace.NewCollector(16)
	tr := Tee(r, col)
	tr.Emit(trace.Event{Type: trace.EventQuerySent, App: "app", User: "alice", Trace: 7})
	tr.Emit(trace.Event{Type: trace.EventCacheHit, App: "app", User: "alice", Trace: 8})
	tr.Emit(trace.Event{Type: trace.EventAccessAllowed, App: "app", User: "alice", Trace: 7, Note: "quorum"})
	snap, evs := r.Snapshot(), col.Events()
	if len(snap) != 2 || snap[0].Type != "query-sent" || snap[1].Type != "access-allowed" || snap[1].Seq != 1 {
		t.Fatalf("recorder holds %+v, want query-sent and access-allowed", snap)
	}
	if len(evs) != 3 || evs[1].Type != trace.EventCacheHit || evs[1].Trace != 8 {
		t.Fatalf("next tracer saw %v, want all three events", evs)
	}
	// nil next must not panic.
	last := Tee(r, nil)
	last.Emit(trace.Event{Type: trace.EventCacheHit})
	last.Emit(trace.Event{Type: trace.EventQueryTimeout})
	if got := r.Total(); got != 3 {
		t.Fatalf("recorder accepted %d records, want 3", got)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder("h0", 1024, fixedClock(time.Unix(1000, 0)))
	rec := Record{Kind: KindProtocol, Type: "query-sent", App: "app", User: "alice", Trace: 99, Note: "note"}
	allocs := testing.AllocsPerRun(1000, func() { r.Record(rec) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per op, want 0", allocs)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder("h0", 64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Record{Kind: KindTransport, Type: "up", Peer: "m0"})
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 1600 {
		t.Fatalf("Total = %d, want 1600", got)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot seqs not contiguous at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	r := NewRecorder("h0", 16, fixedClock(base))
	for i := 0; i < 20; i++ { // overflow the ring so Dropped is set
		r.Record(Record{Kind: KindProtocol, Type: "query-sent", Trace: uint64(i + 1), App: "app", User: "alice"})
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.Flight != DumpVersion {
		t.Fatalf("version = %d, want %d", d.Header.Flight, DumpVersion)
	}
	if len(d.Header.Nodes) != 1 || d.Header.Nodes[0] != "h0" {
		t.Fatalf("nodes = %v, want [h0]", d.Header.Nodes)
	}
	if d.Header.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4", d.Header.Dropped)
	}
	want := r.Snapshot()
	if len(d.Records) != len(want) {
		t.Fatalf("records = %d, want %d", len(d.Records), len(want))
	}
	for i := range want {
		if d.Records[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, d.Records[i], want[i])
		}
	}
}

func TestReadDumpRejectsFutureVersion(t *testing.T) {
	in := `{"flight":99,"nodes":["h0"]}` + "\n"
	if _, err := ReadDump(strings.NewReader(in)); err == nil {
		t.Fatal("want error for future dump version, got nil")
	}
}

func TestReadDumpRejectsRecordWithoutNode(t *testing.T) {
	in := `{"flight":1,"nodes":["h0"]}` + "\n" + `{"seq":0,"t":"2026-01-01T00:00:00Z","kind":"protocol","type":"query-sent"}` + "\n"
	if _, err := ReadDump(strings.NewReader(in)); err == nil {
		t.Fatal("want error for record without node, got nil")
	}
}

func TestMergeSortsNodesAndRecords(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	a := NewRecorder("m1", 16, fixedClock(base))
	b := NewRecorder("h0", 16, fixedClock(base))
	a.Record(Record{Kind: KindProtocol, Type: "query-served"})
	b.Record(Record{Kind: KindProtocol, Type: "query-sent"})
	b.Record(Record{Kind: KindProtocol, Type: "query-timeout"})
	m := Merge(a.Dump(), b.Dump(), nil)
	if got, want := strings.Join(m.Header.Nodes, ","), "h0,m1"; got != want {
		t.Fatalf("merged nodes = %q, want %q", got, want)
	}
	if len(m.Records) != 3 {
		t.Fatalf("merged records = %d, want 3", len(m.Records))
	}
	if m.Records[0].Node != "h0" || m.Records[1].Node != "h0" || m.Records[2].Node != "m1" {
		t.Fatalf("merged order wrong: %v %v %v", m.Records[0].Node, m.Records[1].Node, m.Records[2].Node)
	}
	if m.Records[0].Seq != 0 || m.Records[1].Seq != 1 {
		t.Fatalf("per-node seq order lost: %d then %d", m.Records[0].Seq, m.Records[1].Seq)
	}
}

// modelRecord is what the ring must hold for event e: the specification
// RecordEvent and the tee are checked against, written without looking at
// RecordEvent.
func modelRecord(e trace.Event) Record {
	kind := KindProtocol
	if e.Type == trace.EventUpdateQuorum || e.Type == trace.EventAccessAllowed {
		kind = KindQuorum
	}
	return Record{T: e.Time, Kind: kind, Type: e.Type.String(), Trace: e.Trace, App: string(e.App), User: string(e.User),
		Origin: string(e.Seq.Origin), Counter: e.Seq.Counter, Note: e.Note}
}

// TestRecorderAgainstModel drives a recorder of each capacity with a random
// mix of Record, RecordEvent and the tee, several wraps long, beside a flat
// slice of everything ever recorded: Snapshot must be the slice's tail, Total
// its length, Dropped the rest, Seq the index. On the way the ring may never
// hold more than max(64, 2k) slots after k records nor more than its
// capacity, and once it is full no write allocates.
func TestRecorderAgainstModel(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	for _, size := range []int{16, 63, 64, 65, 4096} {
		rng := rand.New(rand.NewSource(int64(size)))
		r := NewRecorder("n0", size, fixedClock(base))
		tee := Tee(r, nil)
		var model []Record
		accept := func(rec Record) {
			if rec.T.IsZero() {
				rec.T = base
			}
			rec.Node, rec.Seq = "n0", uint64(len(model))
			model = append(model, rec)
		}
		check := func() {
			t.Helper()
			want := model[max(0, len(model)-size):]
			if got := r.Snapshot(); !slices.Equal(got, want) {
				t.Fatalf("size %d after %d records: Snapshot is not the last %d recorded", size, len(model), len(want))
			}
			d := r.Dump()
			if !slices.Equal(d.Records, want) || d.Header.Dropped != uint64(len(model)-len(want)) || r.Total() != uint64(len(model)) {
				t.Fatalf("size %d after %d records: dump lists %d, Dropped %d, Total %d", size, len(model), len(d.Records), d.Header.Dropped, r.Total())
			}
		}
		check()
		total := 3*size + rng.Intn(2*size)
		for len(model) < total {
			var ev trace.Event
			if rng.Intn(2) == 0 {
				ev.Time = base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			}
			ev.Type = trace.EventType(1 + rng.Intn(int(trace.EventTeAdapted)))
			ev.App, ev.User, ev.Trace = "app", wire.UserID("u"+strconv.Itoa(rng.Intn(9))), rng.Uint64()
			ev.Seq = wire.UpdateSeq{Origin: "m0", Counter: uint64(rng.Intn(5))}
			ev.Note = []string{"", "quorum", "n"}[rng.Intn(3)]
			switch rng.Intn(3) {
			case 0:
				rec := Record{T: ev.Time, Kind: KindTransport, Type: "up", Peer: "m1", Note: ev.Note}
				r.Record(rec)
				accept(rec)
			case 1:
				r.RecordEvent(ev)
				accept(modelRecord(ev))
			case 2:
				tee.Emit(ev)
				if ev.Type != trace.EventCacheHit {
					accept(modelRecord(ev))
				}
			}
			if k := len(model); len(r.ring) > max(64, 2*k) || len(r.ring) > size || len(r.ring) < min(k, size) {
				t.Fatalf("size %d after %d records: ring holds %d slots", size, k, len(r.ring))
			}
			if rng.Intn(1+total/16) == 0 {
				check()
			}
		}
		check()
		ev := trace.Event{Time: base, Type: trace.EventQuerySent, App: "app", User: "u"}
		if a := testing.AllocsPerRun(100, func() {
			r.Record(Record{Kind: KindTransport, Type: "up"})
			r.RecordEvent(ev)
			tee.Emit(ev)
		}); a != 0 {
			t.Errorf("size %d: a full ring's writes allocate %.1f times per round, want 0", size, a)
		}
	}
}

// TestDumpIsOneObservation: a dump taken while writers run must account for
// itself — Dropped is exactly the sequence number of the first record listed,
// and the records are consecutive. Read under two holds of the lock, a record
// accepted in between showed up as a drop that never happened.
func TestDumpIsOneObservation(t *testing.T) {
	r := NewRecorder("h0", 256, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Record(Record{Kind: KindTransport, Type: "up", Peer: "m0"})
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		d := r.Dump()
		if len(d.Records) == 0 {
			if d.Header.Dropped != 0 {
				t.Fatalf("dump %d: empty, yet Dropped = %d", i, d.Header.Dropped)
			}
			continue
		}
		first, last := d.Records[0].Seq, d.Records[len(d.Records)-1].Seq
		if d.Header.Dropped != first || last-first+1 != uint64(len(d.Records)) {
			t.Fatalf("dump %d: Dropped = %d with records %d..%d (%d listed)", i, d.Header.Dropped, first, last, len(d.Records))
		}
	}
}
