package audit

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
	// one, they must be unique, and ParseReason must invert String.
	seen := map[string]Reason{}
	for r := Reason(1); r < reasonCount; r++ {
		name := r.String()
		if name == "" || strings.HasPrefix(name, "reason-") {
			t.Errorf("reason %d has no stable name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("reasons %d and %d share name %q", prev, r, name)
		}
		seen[name] = r
		back, ok := ParseReason(name)
		if !ok || back != r {
			t.Errorf("ParseReason(%q) = %v, %v; want %v", name, back, ok, r)
		}
	}
	if _, ok := ParseReason("bogus"); ok {
		t.Error("ParseReason accepted an unknown name")
	}
}

func TestDecisionReasonsCoverAndImplyOutcomes(t *testing.T) {
	for _, r := range DecisionReasons {
		if !r.Decision() {
			t.Errorf("%v listed as a decision reason but Decision() is false", r)
		}
	}
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
		if r.Decision() {
			t.Errorf("response reason %v claims to be a decision", r)
		}
	}
	if !ReasonDefaultAllow.Default() || !ReasonResolveAllow.Default() || ReasonQuorumAllow.Default() {
		t.Error("Default() misclassifies the Figure 4 fallbacks")
	}
}

func TestReasonJSONRoundTrip(t *testing.T) {
	for r := Reason(1); r < reasonCount; r++ {
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
	if d.Header.Audit != DumpVersion || d.Header.Total != 10 ||
		d.Header.Decisions != 6 || d.Header.Responses != 4 || d.Header.Dropped != 6 {
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
	inSlot.RecordCacheHit(t0, 7, "app", "u0", "use", 2, expiry)
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

func (f sinkFunc) RecordAudit(r Record) { f(r) }

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
	if len(m.Records) != 2 || m.Header.Total != 2 {
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
	if _, err := ReadDump(strings.NewReader(`{"audit":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder("h0", 2, fakeClock())
	rec.SetSink(NewWriter(&buf))
	for i := 0; i < 5; i++ {
		rec.Record(Record{Kind: KindDecision, Reason: ReasonCacheHit, Allowed: true})
	}
	// The sink sees every record, including the three the ring dropped.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink got %d lines, want 5", len(lines))
	}
	var r Record
	if err := json.Unmarshal([]byte(lines[4]), &r); err != nil || r.Seq != 4 {
		t.Fatalf("last sink line: %+v (%v)", r, err)
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
		Header: Header{Audit: DumpVersion},
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
	n := Explain(&out, d, nil, nil, Filter{User: "u0"})
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

// TestRecorderAgainstModel drives a recorder of each capacity with a random
// mix of Record (decisions and responses) and RecordCacheHit, several wraps
// long, beside a flat slice of everything ever recorded: Snapshot and All
// must be the slice's tail, Total its length, Dropped the rest, Seq the
// index, Decisions the decisions in all of it. On the way the ring may never
// hold more than max(64, 2k) slots after k records nor more than its
// capacity, and once it is full no write allocates.
func TestRecorderAgainstModel(t *testing.T) {
	for _, size := range []int{1, 16, 63, 64, 65, 4096} {
		rng := rand.New(rand.NewSource(int64(size)))
		now := t0
		r := NewRecorder("h0", size, func() time.Time { return now })
		var model []Record
		var decisions uint64
		accept := func(rec Record) {
			if rec.T.IsZero() {
				rec.T = now
			}
			if rec.Kind == KindDecision {
				decisions++
			}
			rec.Node, rec.Seq = "h0", uint64(len(model))
			model = append(model, rec)
		}
		check := func() {
			t.Helper()
			want := model[max(0, len(model)-size):]
			var inPlace []Record
			for rec := range r.All() {
				inPlace = append(inPlace, *rec)
			}
			if !slices.Equal(r.Snapshot(), want) || !slices.Equal(inPlace, want) {
				t.Fatalf("size %d after %d records: Snapshot or All is not the last %d recorded", size, len(model), len(want))
			}
			d, total, dropped := r.Dump(), uint64(len(model)), uint64(len(model)-len(want))
			if !slices.Equal(d.Records, want) || d.Header.Total != total || d.Header.Dropped != dropped ||
				d.Header.Decisions != decisions || d.Header.Responses != total-decisions {
				t.Fatalf("size %d after %d records (%d decisions): dump lists %d under header %+v", size, total, decisions, len(d.Records), d.Header)
			}
			if r.Total() != total || r.Dropped() != dropped || r.Decisions() != decisions {
				t.Fatalf("size %d after %d records: Total %d, Dropped %d, Decisions %d", size, total, r.Total(), r.Dropped(), r.Decisions())
			}
		}
		check()
		total := 3*size + rng.Intn(2*size) + 5
		for len(model) < total {
			now = now.Add(time.Millisecond)
			at := time.Time{}
			if rng.Intn(2) == 0 {
				at = t0.Add(time.Duration(rng.Intn(1000)) * time.Second)
			}
			user := "u" + strconv.Itoa(rng.Intn(9))
			switch rng.Intn(3) {
			case 0:
				rec := Record{T: at, Kind: KindDecision, Trace: rng.Uint64(), App: "app", User: user, Right: "use",
					Reason: ReasonQuorumDeny, Set: 3, Queried: 3, Denials: 2, Attempts: 1 + rng.Intn(3)}
				r.Record(rec)
				accept(rec)
			case 1:
				rec := Record{T: at, Kind: KindResponse, App: "app", User: user, Reason: ReasonQueryGranted,
					Peer: "h1", Origin: "m0", Counter: uint64(rng.Intn(9)), Expire: time.Minute}
				r.Record(rec)
				accept(rec)
			case 2:
				if at.IsZero() {
					at = now // RecordCacheHit is handed the decision time
				}
				trace, granters, expiry := rng.Uint64(), 1+rng.Intn(3), at.Add(time.Minute)
				r.RecordCacheHit(at, trace, "app", user, "use", granters, expiry)
				accept(Record{T: at, Kind: KindDecision, Trace: trace, App: "app", User: user, Right: "use",
					Reason: ReasonCacheHit, Allowed: true, Granters: granters, Expiry: expiry})
			}
			if k := len(model); len(r.ring) > max(64, 2*k) || len(r.ring) > size || len(r.ring) < min(k, size) {
				t.Fatalf("size %d after %d records: ring holds %d slots", size, k, len(r.ring))
			}
			if rng.Intn(1+total/16) == 0 {
				check()
			}
		}
		check()
		if a := testing.AllocsPerRun(100, func() {
			r.Record(Record{Kind: KindResponse, Reason: ReasonQueryDenied})
			r.RecordCacheHit(t0, 1, "app", "u", "use", 2, t0)
		}); a != 0 {
			t.Errorf("size %d: a full ring's writes allocate %.1f times per round, want 0", size, a)
		}
	}
}

// TestDumpIsOneObservation: a dump taken while writers run must account for
// itself — Total minus Dropped is the number of records listed, the last of
// them is record Total-1, and with only decisions written Decisions is Total.
// Read under two holds of the lock, a record accepted in between showed up
// as a drop that never happened.
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
					r.RecordCacheHit(t0, 1, "app", "u", "use", 2, t0)
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
		if h.Total-h.Dropped != n || h.Decisions != h.Total || n > 0 && d.Records[n-1].Seq != h.Total-1 {
			t.Fatalf("dump %d: %d records listed under header %+v", i, n, h)
		}
	}
}
