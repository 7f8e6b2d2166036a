// These tests cover the decision half of the node journal (internal/flight):
// reasons, decision and response records, their dumps and their
// explanation. They move into internal/flight with this package's deletion.
package audit_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/clitest"
	. "wanac/internal/flight"
	"wanac/internal/wire"
)

var t0 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

// fakeClock hands out strictly increasing stamps so ring order is testable.
func fakeClock() func() time.Time {
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestReasonNamesStable(t *testing.T) {
	// The names are label values and dump fields: every reason must have
	// one, they must be unique, and UnmarshalText must invert String.
	seen := map[string]Reason{}
	for r := Reason(1); r < Reason(NumReasons); r++ {
		name := r.String()
		if name == "" || strings.HasPrefix(name, "reason-") {
			t.Errorf("reason %d has no stable name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("reasons %d and %d share name %q", prev, r, name)
		}
		seen[name] = r
		var back Reason
		if err := back.UnmarshalText([]byte(name)); err != nil || back != r {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, back, err, r)
		}
	}
	var r Reason
	if r.UnmarshalText([]byte("bogus")) == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}

func TestDecisionReasonsCoverAndImplyOutcomes(t *testing.T) {
	if len(DecisionReasons) != 8 {
		t.Fatalf("got %d decision reasons, want 8", len(DecisionReasons))
	}
	wantAllowed := map[Reason]bool{
		ReasonCacheHit: true, ReasonQuorumAllow: true,
		ReasonDefaultAllow: true, ReasonResolveAllow: true,
		ReasonQuorumDeny: false, ReasonUnreachableDeny: false,
		ReasonResolveDeny: false, ReasonUnregisteredDeny: false,
	}
	for r, want := range wantAllowed {
		if r.Allowed() != want {
			t.Errorf("%v.Allowed() = %v, want %v", r, r.Allowed(), want)
		}
	}
	for _, r := range []Reason{ReasonQueryGranted, ReasonQueryShed} {
		if slices.Contains(DecisionReasons, r) {
			t.Errorf("response reason %v listed as a decision reason", r)
		}
	}
	if !ReasonDefaultAllow.Default() || !ReasonResolveAllow.Default() || ReasonQuorumAllow.Default() {
		t.Error("Default() misclassifies the Figure 4 fallbacks")
	}
}

func TestReasonJSONRoundTrip(t *testing.T) {
	for r := Reason(1); r < Reason(NumReasons); r++ {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Reason
		if err := json.Unmarshal(b, &back); err != nil || back != r {
			t.Fatalf("reason %v round-tripped to %v (%v)", r, back, err)
		}
	}
	var r Reason
	if err := json.Unmarshal([]byte(`"nope"`), &r); err == nil {
		t.Error("unknown reason name unmarshalled without error")
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"decision"`), &k); err != nil || k != KindDecision {
		t.Fatalf("kind decode: %v %v", k, err)
	}
}

func TestRecorderRingAndDropAccounting(t *testing.T) {
	rec := NewRecorder("h0", 4, fakeClock())
	for i := 0; i < 10; i++ {
		kind := KindDecision
		if i%3 == 0 {
			kind = KindResponse
		}
		rec.Record(Record{Kind: kind, User: "u", Reason: ReasonCacheHit})
	}
	if rec.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rec.Total())
	}
	if rec.Decisions() != 6 {
		t.Fatalf("Decisions = %d, want 6", rec.Decisions())
	}
	snap := rec.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d records, want ring size 4", len(snap))
	}
	// The retained records are the newest suffix, in emission order.
	for i, r := range snap {
		if want := uint64(6 + i); r.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, r.Seq, want)
		}
		if r.Node != "h0" {
			t.Errorf("snapshot[%d].Node = %q", i, r.Node)
		}
	}
	d := rec.Dump()
	if d.Header.Journal != DumpVersion || d.Header.Dropped != 6 || rec.Dropped() != 6 {
		t.Fatalf("dump header %+v", d.Header)
	}
}

// TestRecordCacheHitMatchesRecord: the in-slot cache-hit record is, field
// for field, what Record would have stored — over a slot that held a
// record with every evidence field set — and reaches the counters and the
// sink the same way.
func TestRecordCacheHitMatchesRecord(t *testing.T) {
	dirty := Record{Kind: KindResponse, Trace: 1, App: "old", User: "old", Right: "manage",
		Reason: ReasonQueryGranted, Attempts: 9, Queried: 9, Quorum: 9, Confirmations: 9, Denials: 9,
		Granters: 9, Managers: "old", Expire: time.Hour, Expiry: t0, Backoffs: 9, Frozen: true,
		Peer: "old", Origin: "old", Counter: 9}
	expiry := t0.Add(time.Minute)
	var sunk []Record
	fill := func(rec *Recorder) {
		rec.SetSink(sinkFunc(func(r Record) { sunk = append(sunk, r) }))
		rec.Record(dirty) // ring of one: the next record overwrites it
	}
	viaRecord, inSlot := NewRecorder("h0", 1, fakeClock()), NewRecorder("h0", 1, fakeClock())
	fill(viaRecord)
	fill(inSlot)
	viaRecord.Record(Record{Kind: KindDecision, T: t0, Trace: 7, App: "app", User: "u0", Right: "use",
		Reason: ReasonCacheHit, Allowed: true, Granters: 2, Expiry: expiry})
	inSlot.RecordCacheHit(t0, 7, "app", "u0", wire.RightUse, 2, expiry.Sub(t0))
	want, got := viaRecord.Snapshot()[0], inSlot.Snapshot()[0]
	if got != want {
		t.Errorf("in-slot record = %+v\nwant            %+v", got, want)
	}
	if len(sunk) != 4 || sunk[3] != want {
		t.Errorf("sink saw %d records, last %+v; want the cache-hit record", len(sunk), sunk[len(sunk)-1])
	}
	if inSlot.Decisions() != 1 || inSlot.Total() != 2 {
		t.Errorf("decisions %d, total %d; want 1, 2", inSlot.Decisions(), inSlot.Total())
	}
}

type sinkFunc func(Record)

func (f sinkFunc) Accept(r *Record) { f(*r) }

func TestRecordSteadyStateAllocations(t *testing.T) {
	rec := NewRecorder("h0", 64, fakeClock())
	r := Record{Kind: KindDecision, App: "app", User: "u0", Right: "use",
		Reason: ReasonCacheHit, Allowed: true, Granters: 2}
	allocs := testing.AllocsPerRun(1000, func() { rec.Record(r) })
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestDumpRoundTripAndMerge(t *testing.T) {
	a := NewRecorder("h0", 8, fakeClock())
	b := NewRecorder("m0", 8, fakeClock())
	a.Record(Record{Kind: KindDecision, App: "app", User: "u0", Right: "use",
		Reason: ReasonQuorumAllow, Allowed: true, Trace: 7, Attempts: 1,
		Queried: 2, Quorum: 2, Confirmations: 2, Managers: "m0,m1",
		Expire: 30 * time.Second, Expiry: t0.Add(30 * time.Second)})
	b.Record(Record{Kind: KindResponse, App: "app", User: "u0", Right: "use",
		Reason: ReasonQueryGranted, Trace: 7, Peer: "h0",
		Expire: 30 * time.Second, Origin: "m0", Counter: 3})

	var buf bytes.Buffer
	if err := a.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 1 {
		t.Fatalf("read %d records, want 1", len(back.Records))
	}
	got, want := back.Records[0], a.Snapshot()[0]
	if !got.T.Equal(want.T) {
		t.Fatalf("time did not round-trip: %v vs %v", got.T, want.T)
	}
	got.T, want.T = time.Time{}, time.Time{}
	if got != want {
		t.Fatalf("record did not round-trip:\n got %+v\nwant %+v", got, want)
	}

	m := Merge(a.Dump(), b.Dump(), nil)
	if len(m.Records) != 2 || m.Header.Dropped != 0 {
		t.Fatalf("merge: %+v", m.Header)
	}
	if m.Records[0].Node != "h0" || m.Records[1].Node != "m0" {
		t.Fatalf("merge order: %s, %s", m.Records[0].Node, m.Records[1].Node)
	}
	if len(m.Header.Nodes) != 2 || m.Header.Nodes[0] != "h0" {
		t.Fatalf("merge nodes: %v", m.Header.Nodes)
	}

	if _, err := ReadDump(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadDump(strings.NewReader(`{"journal":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestDumpGolden pins the bytes /debug/journal and harness artifacts serve of
// decisions and responses: a decisions window that has wrapped (so the header
// carries dropped), both kinds, and each omitempty field both set and unset,
// through Record and RecordCacheHit alike.
func TestDumpGolden(t *testing.T) {
	r := NewRecorder("h0", 8, fakeClock())
	for i := 0; i < 3; i++ { // overwritten: dropped = 3
		r.Record(Record{Kind: KindDecision, Reason: ReasonUnregisteredDeny})
	}
	r.Record(Record{Kind: KindDecision, Trace: 0xabc, App: "stocks", User: "alice", Right: "use",
		Reason: ReasonQuorumAllow, Allowed: true, Set: 3, Attempts: 2, Queried: 3, Quorum: 2, Confirmations: 2,
		Managers: "m0,m1", Expire: 30 * time.Second, Expiry: t0.Add(30 * time.Second), Backoffs: 1, Frozen: true})
	r.RecordCacheHit(t0.Add(time.Second), 0xabd, "stocks", "alice", wire.RightUse, 2, 29*time.Second)
	r.Record(Record{Kind: KindDecision, Trace: 0xabe, App: "stocks", User: "bob", Right: "use",
		Reason: ReasonQuorumDeny, Set: 3, Queried: 2, Quorum: 2, Denials: 2})
	r.Record(Record{Kind: KindDecision, Trace: 0xabf, App: "stocks", User: "carol", Right: "manage",
		Reason: ReasonDefaultAllow, Allowed: true, Set: 3, Attempts: 3, Queried: 3, Quorum: 2})
	r.Record(Record{Kind: KindResponse, Trace: 0xabc, App: "stocks", User: "alice", Right: "use",
		Reason: ReasonQueryGranted, Expire: 30 * time.Second, Peer: "h1", Origin: "m0", Counter: 4})
	r.Record(Record{Kind: KindResponse, Reason: ReasonQueryShed, Peer: "h1"})
	r.Record(Record{T: t0.Add(time.Minute), Kind: KindResponse, App: "stocks", User: "bob",
		Reason: ReasonQueryDenied, Peer: "h2", Origin: "m1"})
	r.Record(Record{Kind: KindDecision, Reason: ReasonResolveDeny, Attempts: 1})
	var buf bytes.Buffer
	for _, rec := range []*Recorder{r, NewRecorder("m0", 8, nil)} { // one that never wrapped: no responses, no dropped
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
	}
	clitest.CheckGolden(t, "dump.golden", buf.String())
}

// TestWriterSink streams a manager's records as acnode -audit.jsonl does:
// the sink sees every decision and response, the ones the window dropped
// included, but no protocol record, and ReadDump turns the headerless stream
// into a dump of the nodes it names. A line without a node is rejected, in a
// stream as in a dump.
func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder("m0", 2, fakeClock())
	rec.SetSink(NewWriter(&buf))
	for i := 0; i < 5; i++ {
		rec.Record(Record{Kind: KindResponse, Reason: ReasonQueryGranted, Peer: "h0"})
	}
	rec.Record(Record{Kind: KindProtocol, Type: "query-served", Peer: "h0"})
	rec.Record(Record{Kind: KindDecision, Reason: ReasonCacheHit, Allowed: true})
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h := d.Header; len(d.Records) != 6 || d.Records[5].Seq != 6 || d.Records[5].Kind != KindDecision || h.Dropped != 0 ||
		!slices.Equal(h.Nodes, []string{"m0"}) {
		t.Fatalf("stream of 6 records read as %d under header %+v", len(d.Records), h)
	}
	nodeless := `{"seq":0,"t":"2000-01-01T12:00:00Z","kind":"response","reason":"query_granted"}` + "\n"
	if _, err := ReadDump(strings.NewReader(nodeless)); err == nil {
		t.Error("stream record without node accepted")
	}
	if _, err := ReadDump(strings.NewReader(`{"journal":1,"nodes":["h0"]}` + "\n" + nodeless)); err == nil {
		t.Error("dump record without node accepted")
	}
}

func TestMatchDecisionsFilter(t *testing.T) {
	recs := []Record{
		{Kind: KindDecision, App: "a", User: "u0", Node: "h0", Trace: 1, T: t0},
		{Kind: KindResponse, App: "a", User: "u0", Node: "m0", Trace: 1, T: t0},
		{Kind: KindDecision, App: "a", User: "u1", Node: "h1", Trace: 2, T: t0.Add(time.Minute)},
		{Kind: KindDecision, App: "b", User: "u0", Node: "h0", Trace: 3, T: t0.Add(2 * time.Minute)},
	}
	if got := MatchDecisions(recs, Filter{}); len(got) != 3 {
		t.Fatalf("unfiltered: %d decisions, want 3 (responses excluded)", len(got))
	}
	if got := MatchDecisions(recs, Filter{User: "u0"}); len(got) != 2 {
		t.Fatalf("user filter: %d, want 2", len(got))
	}
	if got := MatchDecisions(recs, Filter{Trace: 2}); len(got) != 1 || got[0].User != "u1" {
		t.Fatalf("trace filter: %+v", got)
	}
	if got := MatchDecisions(recs, Filter{At: t0.Add(time.Minute)}); len(got) != 1 {
		t.Fatalf("at filter (default 1s window): %d, want 1", len(got))
	}
	if got := MatchDecisions(recs, Filter{At: t0.Add(time.Minute), Window: 5 * time.Minute}); len(got) != 3 {
		t.Fatalf("wide window: %d, want 3", len(got))
	}
	if got := MatchDecisions(recs, Filter{Last: 2}); len(got) != 2 || got[0].Trace != 2 {
		t.Fatalf("last 2: %+v", got)
	}
}

func TestExplainJoinsResponsesByTrace(t *testing.T) {
	d := &Dump{
		Header: Header{Journal: DumpVersion},
		Records: []Record{
			{Kind: KindDecision, Node: "h0", App: "app", User: "u0", Right: "use",
				T: t0, Trace: 0xabc, Reason: ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Queried: 2, Quorum: 2, Confirmations: 2,
				Managers: "m0,m1", Expire: 30 * time.Second, Expiry: t0.Add(30 * time.Second)},
			{Kind: KindResponse, Node: "m0", App: "app", User: "u0", T: t0,
				Trace: 0xabc, Reason: ReasonQueryGranted, Peer: "h0",
				Expire: 30 * time.Second, Origin: "m0", Counter: 1},
			{Kind: KindResponse, Node: "m1", App: "app", User: "u0", T: t0,
				Trace: 0xfff, Reason: ReasonQueryGranted, Peer: "h9"},
		},
	}
	var out strings.Builder
	n := Explain(&out, d, Filter{User: "u0"})
	if n != 1 {
		t.Fatalf("explained %d decisions, want 1", n)
	}
	text := out.String()
	for _, want := range []string{
		"reason=quorum_allow", "trace=0000000000000abc",
		"check quorum reached: 2/2 queried managers granted (m0,m1)",
		"manager m0: granted to host h0",
		"last ACL op m0/1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "m1:") {
		t.Errorf("explanation joined a response from a different trace:\n%s", text)
	}
}

func TestOutcomeAndEvidenceWording(t *testing.T) {
	cases := []struct {
		rec  Record
		word string
		frag string
	}{
		{Record{Reason: ReasonCacheHit, Allowed: true, Granters: 1, T: t0, Expiry: t0.Add(time.Second)},
			"ALLOW", "served from ACL_cache"},
		{Record{Reason: ReasonDefaultAllow, Allowed: true, Attempts: 3},
			"ALLOW(default)", "Figure 4"},
		{Record{Reason: ReasonUnreachableDeny, Attempts: 3},
			"DENY", "fail-safe"},
		{Record{Reason: ReasonUnregisteredDeny},
			"DENY", "not registered"},
	}
	for _, c := range cases {
		if got := c.rec.Outcome(); got != c.word {
			t.Errorf("%v outcome %q, want %q", c.rec.Reason, got, c.word)
		}
		if ev := c.rec.Evidence(); !strings.Contains(ev, c.frag) {
			t.Errorf("%v evidence %q missing %q", c.rec.Reason, ev, c.frag)
		}
	}
	backoff := Record{Reason: ReasonQuorumAllow, Allowed: true, Backoffs: 2, Frozen: true}
	ev := backoff.Evidence()
	if !strings.Contains(ev, "deferred 2 time(s)") || !strings.Contains(ev, "freeze state") {
		t.Errorf("backoff/frozen notes missing: %q", ev)
	}
}

// TestRecorderAgainstModel drives a recorder with a random mix of Record
// (decisions and responses, with and without a time) and RecordCacheHit, a
// few wraps long, beside a flat slice of what each call should have recorded:
// Snapshot, All and the dump must be the slice's tail, stamped with Node, Seq
// and, where the caller gave no time, the recorder's clock, and the counts
// must cover every record ever accepted, by kind.
func TestRecorderAgainstModel(t *testing.T) {
	const size = 16
	rng := rand.New(rand.NewSource(1))
	now := t0
	r := NewRecorder("h0", size, func() time.Time { return now })
	var model []Record
	var decisions uint64
	for len(model) < 3*size+5 {
		now = now.Add(time.Millisecond)
		user := "u" + strconv.Itoa(rng.Intn(9))
		var rec Record
		switch rng.Intn(3) {
		case 0:
			rec = Record{T: t0.Add(time.Duration(rng.Intn(1000)) * time.Second), Kind: KindDecision, Trace: rng.Uint64(),
				App: "app", User: user, Right: "use", Reason: ReasonQuorumDeny, Set: 3, Queried: 3, Denials: 2}
			r.Record(rec)
		case 1:
			rec = Record{Kind: KindResponse, App: "app", User: user, Reason: ReasonQueryGranted, Peer: "h1", Origin: "m0"}
			r.Record(rec)
			rec.T = now
		case 2:
			rec = Record{T: now, Kind: KindDecision, Trace: rng.Uint64(), App: "app", User: user, Right: "use",
				Reason: ReasonCacheHit, Allowed: true, Granters: 1 + rng.Intn(3), Expiry: now.Add(time.Minute)}
			r.RecordCacheHit(rec.T, rec.Trace, rec.App, rec.User, wire.RightUse, rec.Granters, time.Minute)
		}
		if rec.Kind == KindDecision {
			decisions++
		}
		rec.Node, rec.Seq = "h0", uint64(len(model))
		model = append(model, rec)
	}
	want, total := model[len(model)-size:], uint64(len(model))
	var inPlace []Record
	for rec := range r.All() {
		inPlace = append(inPlace, *rec)
	}
	d := r.Dump()
	if !slices.Equal(r.Snapshot(), want) || !slices.Equal(inPlace, want) || !slices.Equal(d.Records, want) {
		t.Fatalf("after %d records: Snapshot, All or the dump is not the last %d recorded", total, size)
	}
	if h := d.Header; h.Dropped != total-size || r.Total() != total || r.Dropped() != total-size || r.Decisions() != decisions {
		t.Fatalf("after %d records (%d decisions): Total %d, Dropped %d, Decisions %d, dump header %+v",
			total, decisions, r.Total(), r.Dropped(), r.Decisions(), h)
	}
	if a := testing.AllocsPerRun(100, func() { r.RecordCacheHit(t0, 1, "app", "u", wire.RightUse, 2, 0) }); a != 0 {
		t.Errorf("RecordCacheHit allocates %.1f times per op, want 0", a)
	}
}

// TestDumpIsOneObservation: a dump taken while writers of decisions run must
// account for itself — Dropped is exactly the sequence number of the first
// record listed, and the records are consecutive. Read under two holds of
// the lock, a record accepted in between showed up as a drop that never
// happened.
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
					r.RecordCacheHit(t0, 1, "app", "u", wire.RightUse, 2, 0)
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
		h, n := d.Header, uint64(len(d.Records))
		if n > 0 && (d.Records[0].Seq != h.Dropped || d.Records[n-1].Seq != h.Dropped+n-1) || n == 0 && h.Dropped != 0 {
			t.Fatalf("dump %d: %d records listed under header %+v", i, n, h)
		}
	}
}
