package flight

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/clitest"
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
	r.RecordEvent(trace.Event{Type: trace.EventAccessAllowed, Word: trace.WordQuorum, Trace: 7})
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
	r.RecordEvent(trace.Event{Type: trace.EventUpdateIssued, Seq: wire.UpdateSeq{Origin: "m0", Counter: 3}, Word: trace.WordAdd})
	r.RecordEvent(trace.Event{Type: trace.EventQueryShed, Peer: "h1", Num: int64(time.Second)})
	snap := r.Snapshot()
	want := []Record{
		{Seq: 16, T: at, Node: "h0", Kind: KindProtocol, Type: "cache-hit", Trace: 7, App: "app", User: "alice"},
		{Seq: 17, T: base, Node: "h0", Kind: KindProtocol, Type: "update-issued", Origin: "m0", Counter: 3, Note: "add"},
		{Seq: 18, T: base, Node: "h0", Kind: KindProtocol, Type: "query-shed", Note: "host=h1 retry=1s"},
	}
	for i, w := range want {
		if got := snap[len(snap)-len(want)+i]; got != w {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestTeeRecordsAndForwards: the tee records every event but a cache hit
// and forwards every event, a cache hit included.
func TestTeeRecordsAndForwards(t *testing.T) {
	r := NewRecorder("h0", 16, nil)
	col := trace.NewCollector()
	tr := Tee(r, col)
	tr.Emit(trace.Event{Type: trace.EventQuerySent, App: "app", User: "alice", Trace: 7})
	tr.Emit(trace.Event{Type: trace.EventCacheHit, App: "app", User: "alice", Trace: 8})
	tr.Emit(trace.Event{Type: trace.EventAccessAllowed, App: "app", User: "alice", Trace: 7, Word: trace.WordQuorum})
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
	d := r.Dump()
	if len(d.Records) != 64 || d.Header.Dropped != 1600-64 {
		t.Fatalf("dump of %d records under %+v, want 64 with 1536 dropped", len(d.Records), d.Header)
	}
	if d.Records[0].Seq != 1600-64 || d.Records[63].Seq != 1599 {
		t.Fatalf("dump spans seqs %d..%d, want 1536..1599", d.Records[0].Seq, d.Records[63].Seq)
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Seq != d.Records[i-1].Seq+1 {
			t.Fatalf("dump seqs not contiguous at %d: %d then %d", i, d.Records[i-1].Seq, d.Records[i].Seq)
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
	if d.Header.Journal != DumpVersion {
		t.Fatalf("version = %d, want %d", d.Header.Journal, DumpVersion)
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

// TestDumpGolden pins the bytes /debug/journal and harness artifacts serve:
// a fixed-clock protocol window that has wrapped (so the header carries
// dropped), every Kind, each omitempty field both set and unset, through
// Record, RecordEvent and RecordCacheHit alike, and the two windows' records
// listed in Seq order.
func TestDumpGolden(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).UTC()
	r := NewRecorder("h0", 16, fixedClock(base))
	for i := 0; i < 4; i++ { // overwritten: dropped = 4
		r.Record(Record{Kind: KindProtocol, Type: "query-sent", Trace: uint64(i + 1)})
	}
	at := base.Add(1500 * time.Millisecond)
	r.Record(Record{Kind: KindProtocol, Type: "query-sent", Trace: 0xabc, App: "stocks", User: "alice"})
	r.Record(Record{T: at, Kind: KindQuorum, Type: "access-allowed", Trace: 0xabc, App: "stocks", User: "alice", Note: "quorum"})
	r.Record(Record{Kind: KindTransport, Type: "backoff", Peer: "m1"})
	r.Record(Record{Kind: KindTransport, Type: "up"})
	r.Record(Record{T: at, Kind: KindNet, Type: "link-cut", Peer: "m0", Note: "h0-m0"})
	r.Record(Record{Kind: KindNet, Type: "heal"})
	r.Record(Record{Kind: KindMark, Type: "oracle-violation", Note: "revocation-safety: stale allow"})
	r.Record(Record{Kind: KindQuorum, Type: "update-quorum", Origin: "m0", Counter: 3, App: "stocks", User: "bob"})
	r.Record(Record{Kind: KindProtocol, Type: "update-applied", Origin: "m0"})
	r.RecordEvent(trace.Event{Time: at, Type: trace.EventUpdateQuorum, App: "stocks", User: "bob", Seq: wire.UpdateSeq{Origin: "m1", Counter: 7}})
	r.RecordEvent(trace.Event{Type: trace.EventAccessAllowed, Trace: 0xdef, App: "stocks", User: "carol", Word: trace.WordQuorum})
	r.Record(Record{Kind: KindProtocol, Type: "query-timeout", Trace: 0xdef})
	r.RecordEvent(trace.Event{Type: trace.EventFrozen})
	r.RecordEvent(trace.Event{Type: trace.EventTeAdapted, Num: int64(2 * time.Second)})
	r.RecordEvent(trace.Event{Type: trace.EventRevokeApplied, App: "stocks", User: "bob", Seq: wire.UpdateSeq{Counter: 2}})
	r.Record(Record{Kind: KindProtocol, Type: "query-sent", Trace: 0x1, User: "dave"})
	r.RecordCacheHit(at, 0xabd, "stocks", "alice", wire.RightUse, 2, 30*time.Second)
	r.Record(Record{Kind: KindResponse, Trace: 0xabc, App: "stocks", User: "alice", Right: "use",
		Reason: ReasonQueryGranted, Expire: 30 * time.Second, Peer: "h1", Origin: "m0", Counter: 4})
	r.Record(Record{Kind: KindProtocol, Type: "frozen"})
	var buf bytes.Buffer
	for _, rec := range []*Recorder{r, NewRecorder("m0", 16, nil)} { // one that never wrapped: no dropped
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
	}
	clitest.CheckGolden(t, "dump.golden", buf.String())
}

func TestReadDumpRejectsFutureVersion(t *testing.T) {
	in := `{"journal":99,"nodes":["h0"]}` + "\n"
	if _, err := ReadDump(strings.NewReader(in)); err == nil {
		t.Fatal("want error for future dump version, got nil")
	}
}

func TestReadDumpRejectsRecordWithoutNode(t *testing.T) {
	in := `{"journal":1,"nodes":["h0"]}` + "\n" + `{"seq":0,"t":"2026-01-01T00:00:00Z","kind":"protocol","type":"query-sent"}` + "\n"
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

// TestDumpCodecRoundTrip: a dump built by hand, of both windows' kinds,
// reads back as written, blank lines after it skipped.
func TestDumpCodecRoundTrip(t *testing.T) {
	at := time.Unix(1000, 0).UTC()
	d := &Dump{Header: Header{Journal: DumpVersion, Nodes: []string{"a"}, Dropped: 3}, Records: []Record{
		{Seq: 3, T: at, Node: "a", Kind: KindProtocol, Type: "query-sent", Trace: 9, Note: "x"},
		{Seq: 4, T: at, Node: "a", Kind: KindDecision, Trace: 9, Reason: ReasonQueryGranted, Allowed: true, Confirmations: 2, Managers: "m0,m1"},
	}}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n\n")
	back, err := ReadDump(&buf)
	if err != nil || !reflect.DeepEqual(back.Header, d.Header) || !reflect.DeepEqual(back.Records, d.Records) {
		t.Fatalf("read back %+v (%v), want %+v", back, err, d)
	}
}

// TestMergeAndNodes: Merge skips nil dumps, sums their drops, takes the
// sorted union of their nodes and orders records by node, then Seq, keeping
// the input order of records with the same key.
func TestMergeAndNodes(t *testing.T) {
	a := &Dump{Header: Header{Nodes: []string{"b", "a"}, Dropped: 1}, Records: []Record{{Node: "b", Seq: 1}, {Node: "a", Seq: 2}, {Node: "a", Seq: 1, Note: "first"}}}
	b := &Dump{Header: Header{Nodes: []string{"b"}, Dropped: 2}, Records: []Record{{Node: "b"}, {Node: "a", Seq: 1, Note: "second"}}}
	m := Merge(a, nil, b)
	want := []Record{{Node: "a", Seq: 1, Note: "first"}, {Node: "a", Seq: 1, Note: "second"}, {Node: "a", Seq: 2}, {Node: "b"}, {Node: "b", Seq: 1}}
	if !reflect.DeepEqual(m.Records, want) || m.Header.Journal != DumpVersion || m.Header.Dropped != 3 || !slices.Equal(m.Header.Nodes, []string{"a", "b"}) {
		t.Fatalf("merged %+v, want records %v under nodes a,b with 3 dropped", m, want)
	}
	if got := nodes(nodes(nil, []string{"m1", "h0"}), []string{"h0", "m0"}); !slices.Equal(got, []string{"h0", "m0", "m1"}) {
		t.Fatalf("nodes = %v", got)
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
		Origin: string(e.Seq.Origin), Counter: e.Seq.Counter, Note: e.Note()}
}

// TestRecorderAgainstModel drives a recorder with random events through
// RecordEvent and the tee, a few wraps long, beside a flat slice of what each
// should have recorded: the dump must be the slice's tail, every record
// classified as modelRecord does and stamped with Node, Seq and, where the
// event had no time, the recorder's clock. The ring itself is ring_test.go's
// to test.
func TestRecorderAgainstModel(t *testing.T) {
	const size = 16
	base := time.Unix(1000, 0).UTC()
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder("n0", size, fixedClock(base))
	tee := Tee(r, nil)
	var model []Record
	for len(model) < 3*size+5 {
		ev := trace.Event{Type: trace.EventType(1 + rng.Intn(int(trace.EventTeAdapted))), Trace: rng.Uint64(),
			App: "app", User: wire.UserID("u" + strconv.Itoa(rng.Intn(9))), Word: []trace.Word{0, trace.WordQuorum}[rng.Intn(2)],
			Peer: []wire.NodeID{"", "h1"}[rng.Intn(2)], Num: int64(rng.Intn(3)) * int64(time.Second),
			Seq: wire.UpdateSeq{Origin: "m0", Counter: uint64(rng.Intn(5))}}
		if rng.Intn(2) == 0 {
			ev.Time = base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
		}
		if rng.Intn(2) == 0 {
			r.RecordEvent(ev)
		} else if tee.Emit(ev); ev.Type == trace.EventCacheHit {
			continue // the tee keeps no hits
		}
		rec := modelRecord(ev)
		if rec.T.IsZero() {
			rec.T = base
		}
		rec.Node, rec.Seq = "n0", uint64(len(model))
		model = append(model, rec)
	}
	if d := r.Dump(); !slices.Equal(d.Records, model[len(model)-size:]) || d.Header.Dropped != uint64(len(model)-size) {
		t.Fatalf("after %d records: dump lists %d under header %+v, not the last %d recorded", len(model), len(d.Records), d.Header, size)
	}
	ev := trace.Event{Time: base, Type: trace.EventQuerySent, App: "app", User: "u"}
	if a := testing.AllocsPerRun(100, func() {
		r.RecordEvent(ev)
		tee.Emit(ev)
	}); a != 0 {
		t.Errorf("RecordEvent and the tee allocate %.1f times per round, want 0", a)
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

// TestReadRejects covers each rule a reader enforces, and that errors name
// the line; a headerless stream of records reads as a dump of the nodes it
// names.
func TestReadRejects(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", "empty dump"},
		{"not json\n", "bad dump header"},
		{`{"journal":2}` + "\n", "unsupported dump version 2"},
		{`{"flight":1,"nodes":["h0"]}` + "\n", "line 1: record without node"},
		{`{"audit":1,"nodes":["h0"],"total":0,"decisions":0}` + "\n", "line 1: record without node"},
		{`{"journal":1}` + "\n" + `{"node":"a"}` + "\n\n" + `{"seq":3}` + "\n", "line 4: record without node"},
		{`{"journal":1}` + "\n" + `{"node":1}` + "\n", "line 2"},
		{`{"node":"a"}` + "\n" + `{"seq":1}` + "\n", "line 2: record without node"},
	} {
		if _, err := ReadDump(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadDump(%q) = %v, want an error containing %q", c.in, err, c.want)
		}
	}
	d, err := ReadDump(strings.NewReader(`{"node":"m0","kind":"response"}` + "\n\n" + `{"node":"h0","seq":4,"kind":"decision"}` + "\n"))
	if err != nil || len(d.Records) != 2 || !slices.Equal(d.Header.Nodes, []string{"h0", "m0"}) || d.Header.Journal != DumpVersion {
		t.Fatalf("headerless stream read as %+v (%v)", d, err)
	}
}

// TestJournalRetention: protocol chatter cannot evict a decision. A
// decision, then ten windows' worth of transport records: the dump still
// lists the decision, its header's Dropped is exactly the protocol records
// overwritten, and the listed Seqs strictly increase — with no gaps when
// nothing was dropped. A window that never got a record holds no slots.
func TestJournalRetention(t *testing.T) {
	const size = 64
	r := NewRecorder("h0", size, nil)
	for i := 0; i < size/2; i++ {
		r.Record(Record{Kind: KindTransport, Type: "up", Peer: "m0"})
	}
	if r.decided.buf != nil {
		t.Fatalf("a journal that recorded no decision holds %d decision slots", len(r.decided.buf))
	}
	if d := r.Dump(); d.Header.Dropped != 0 || d.Records[len(d.Records)-1].Seq != size/2-1 {
		t.Fatalf("before any drop: %d records under %+v", len(d.Records), d.Header)
	}
	r.RecordCacheHit(t0, 7, "app", "alice", wire.RightUse, 2, time.Minute)
	for i := 0; i < 10*size; i++ {
		r.Record(Record{Kind: KindTransport, Type: "up", Peer: "m0"})
	}
	d := r.Dump()
	if d.Records[0].Kind != KindDecision || d.Records[0].Trace != 7 || len(d.Records) != size+1 {
		t.Fatalf("the decision is gone: %d records, the first %+v", len(d.Records), d.Records[0])
	}
	if overwritten := uint64(size/2 + 10*size - size); d.Header.Dropped != overwritten || r.Dropped() != overwritten {
		t.Fatalf("Dropped = %d (recorder %d), want the %d protocol records overwritten", d.Header.Dropped, r.Dropped(), overwritten)
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Seq <= d.Records[i-1].Seq {
			t.Fatalf("Seq %d listed after %d", d.Records[i].Seq, d.Records[i-1].Seq)
		}
	}
	if p := r.protocol; len(p.buf) != size || r.decided.retained() != 1 {
		t.Fatalf("windows hold %d protocol slots and %d decisions, want %d and 1", len(p.buf), r.decided.retained(), size)
	}
}
