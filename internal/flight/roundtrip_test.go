package flight

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

var t0 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

// clocks are the kinds of time a recorder is handed: a simulated UTC clock,
// the same instants in the local zone, and the wall clock with its monotonic
// reading. A recorder takes its times from one of them.
var clocks = []struct {
	name string
	at   func(d time.Duration) time.Time
}{
	{"utc", func(d time.Duration) time.Time { return t0.Add(d) }},
	{"local", func(d time.Duration) time.Time { return t0.Add(d).Local() }},
	{"monotonic", func(d time.Duration) time.Time { return time.Now().Add(d) }},
}

// counts are the values a count is drawn from: zero, the largest a host's
// 64 managers allow, and out of domain both ways.
var counts = []int{0, 1, 64, 255, 256, 300, -1, -300, math.MaxInt16 + 1, math.MaxInt32 + 1, math.MinInt64}

func clamp(n, lo, hi int) int { return min(max(n, lo), hi) }

// randomRecord draws a record of any of the seven kinds covering every
// field, times from at (zero about a third of the time), as the caller hands
// it to the recorder.
func randomRecord(rng *rand.Rand, at func(time.Duration) time.Time) Record {
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return "s" + strconv.Itoa(rng.Intn(100))
	}
	when := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{}
		}
		return at(time.Duration(rng.Int63n(int64(200*365*24*time.Hour))) - 100*365*24*time.Hour)
	}
	count := func() int { return counts[rng.Intn(len(counts))] }
	right := func() string {
		if rng.Intn(2) == 0 {
			return []string{"use", "manage"}[rng.Intn(2)]
		}
		return str()
	}
	return Record{
		T: when(), Kind: Kind(1 + rng.Intn(int(KindResponse))), Type: str(), Trace: rng.Uint64(),
		App: str(), User: str(), Right: right(), Origin: str(), Counter: rng.Uint64(), Peer: str(), Note: str(),
		Reason: Reason(1 + rng.Intn(NumReasons-1)), Allowed: rng.Intn(2) == 0,
		Set: uint8(rng.Intn(256)), Attempts: count(), Queried: count(), Quorum: count(),
		Confirmations: count(), Denials: count(), Granters: count(), Managers: str(),
		Expire: time.Duration(rng.Int63() - rng.Int63()), Expiry: when(), Backoffs: count(), Frozen: rng.Intn(2) == 0,
	}
}

// event is the trace event rec stands for when it is a protocol record one
// can carry, with detail drawn from rec: Note names the peer, Trace picks the
// word and whether the event carries a number, alone or beside a Seq.Counter.
func event(rec Record) (trace.Event, bool) {
	e := trace.Event{Time: rec.T, Type: trace.EventType(1 + rec.Counter%uint64(trace.EventTeAdapted)), Trace: rec.Trace,
		App: wire.AppID(rec.App), User: wire.UserID(rec.User), Peer: wire.NodeID(rec.Note),
		Word: trace.Word(rec.Trace % uint64(trace.WordInvalidOp+1)),
		Seq:  wire.UpdateSeq{Origin: wire.NodeID(rec.Origin), Counter: rec.Counter}}
	switch rec.Trace % 3 {
	case 1:
		e.Num, e.Seq.Counter = int64(rec.Trace>>2)-1<<60, 0
	case 2:
		e.Num = int64(rec.Trace >> 3)
	}
	return e, rec.Kind == KindProtocol && rec.Peer == ""
}

// hitRight is the right of a cache hit's record that names a wire.Right and
// whose Expiry its T gives a time left for (hitLeft): such a record is the
// one RecordCacheHit writes.
func hitRight(rec Record) (wire.Right, bool) {
	if _, ok := hitLeft(rec); ok && rec.Kind == KindDecision && rec.Reason == ReasonCacheHit {
		for _, right := range []wire.Right{wire.RightUse, wire.RightManage} {
			if rec.Right == right.String() {
				return right, true
			}
		}
	}
	return 0, false
}

// hitLeft is the time left RecordCacheHit takes for rec: its Expiry less its
// T as wall readings, math.MaxInt64 for a zero Expiry. A record with an
// Expiry but a zero T, which the journal's clock stamps, has none.
func hitLeft(rec Record) (time.Duration, bool) {
	switch {
	case rec.Expiry.IsZero():
		return math.MaxInt64, true
	case rec.T.IsZero():
		return 0, false
	}
	return rec.Expiry.Round(0).Sub(rec.T.Round(0)), true
}

func isHit(rec Record) bool {
	_, ok := hitRight(rec)
	return ok
}

// write hands rec to r: through RecordEvent when a trace event can carry
// it, through RecordCacheHit when it is a cache hit's record, through Record
// otherwise.
func write(r *Recorder, rec Record) {
	if e, ok := event(rec); ok {
		r.RecordEvent(e)
	} else if right, ok := hitRight(rec); ok {
		left, _ := hitLeft(rec)
		r.RecordCacheHit(rec.T, rec.Trace, rec.App, rec.User, right, rec.Granters, left)
	} else {
		r.Record(rec)
	}
}

// model is what a recorder must give back for rec, written by write, as
// record seq of node: a protocol-window record without evidence, a decision
// or response without Type and Note and with its counts saturated, a cache
// hit's evidence only. A zero T stays zero: it reads back as the recorder's
// clock.
func model(rec Record, node string, seq uint64) Record {
	switch e, ok := event(rec); {
	case ok:
		rec = modelRecord(e)
	case isHit(rec):
		rec = Record{T: rec.T, Kind: KindDecision, Trace: rec.Trace, App: rec.App, User: rec.User, Right: rec.Right,
			Reason: ReasonCacheHit, Allowed: true, Granters: rec.Granters, Expiry: rec.Expiry}
	case rec.Kind.decided():
		rec.Type, rec.Note = "", ""
	default:
		rec = Record{T: rec.T, Kind: rec.Kind, Type: rec.Type, Trace: rec.Trace, App: rec.App, User: rec.User,
			Origin: rec.Origin, Counter: rec.Counter, Peer: rec.Peer, Note: rec.Note}
	}
	rec.Node, rec.Seq = node, seq
	for _, n := range []*int{&rec.Queried, &rec.Quorum, &rec.Confirmations, &rec.Denials, &rec.Granters} {
		*n = clamp(*n, 0, math.MaxUint8)
	}
	for _, n := range []*int{&rec.Attempts, &rec.Backoffs} {
		*n = clamp(*n, math.MinInt16, math.MaxInt16)
	}
	return rec
}

// retainedTail is what a journal of windows of size keeps of want, every
// record it was handed in Seq order: the last size of each window.
func retainedTail(want []Record, size int) []Record {
	var kept []Record
	left := map[bool]int{false: size, true: size}
	for i := len(want) - 1; i >= 0; i-- {
		if w := want[i].Kind.decided(); left[w] > 0 {
			left[w]--
			kept = append(kept, want[i])
		}
	}
	slices.Reverse(kept)
	return kept
}

// same reports how got differs from want, or "": times must be Equal and in
// the same Location, everything else equal.
func same(got, want Record) string {
	for _, p := range [][2]time.Time{{got.T, want.T}, {got.Expiry, want.Expiry}} {
		if !p[0].Equal(p[1]) || p[0].Location() != p[1].Location() {
			return "time " + p[0].String() + ", want " + p[1].String()
		}
	}
	got.T, got.Expiry, want.T, want.Expiry = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if got != want {
		return "fields differ"
	}
	return ""
}

func sameAll(t *testing.T, via string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", via, len(got), len(want))
	}
	for i := range want {
		if diff := same(got[i], want[i]); diff != "" {
			t.Fatalf("%s: record %d: %s\n got %+v\nwant %+v", via, i, diff, got[i], want[i])
		}
	}
}

// TestFlightRecordRoundTrip: whatever a journal is handed, of any of the
// seven kinds, through Record, RecordEvent or RecordCacheHit, reads back from
// All, Snapshot, the dump and — a decision or response — a sink as it was
// given: stamped with Node and Seq, a zero T with the journal's clock, a
// count outside its slot's range saturated, never wrapped, and each window
// keeping its own last records. It holds for each kind of clock, over slots
// that held other records, and with a name table already full of other
// names, half of a record's names found there and half spilled (fillNames).
// A journal of windows of size 0 keeps none of them and still hands its sink
// every decision and response as it was given.
func TestFlightRecordRoundTrip(t *testing.T) {
	for i, clock := range clocks {
		for _, full := range []bool{false, true} {
			for _, size := range []int{128, 0} {
				roundTrip(t, i, clock.name, clock.at, full, size)
			}
		}
	}
}

func roundTrip(t *testing.T, i int, name string, at func(time.Duration) time.Time, full bool, size int) {
	rng := rand.New(rand.NewSource(int64(i + 1)))
	var last time.Time
	name += " size " + strconv.Itoa(size)
	r := NewRecorder("n"+strconv.Itoa(i), size, func() time.Time {
		last = at(time.Duration(rng.Intn(1000)) * time.Millisecond)
		return last
	})
	if full {
		name += " full"
		for j := range 50 {
			r.names.Index("s" + strconv.Itoa(j))
		}
		fillNames(r, 0)
	}
	var sunk, want, decided []Record
	r.SetSink(sinkFunc(func(rec Record) { sunk = append(sunk, rec) }))
	for seq := uint64(0); seq < 1000; seq++ {
		rec := randomRecord(rng, at)
		write(r, rec)
		if rec = model(rec, r.Node(), seq); rec.T.IsZero() {
			rec.T = last
		}
		if want = append(want, rec); rec.Kind.decided() {
			decided = append(decided, rec)
		}
	}
	sameAll(t, name+" sink", sunk, decided)
	want = retainedTail(want, size)
	var all []Record
	for rec := range r.All() {
		all = append(all, *rec)
	}
	sameAll(t, name+" All", all, want)
	sameAll(t, name+" Snapshot", r.Snapshot(), want)
	sameAll(t, name+" Dump", r.Dump().Records, want)
}

// TestUnpackDecisionSetsEveryField: the sink's record is reused, so a
// decision unpacked into one whose every field is set must read as one
// unpacked into a zero Record, in a window of any size, 0 included.
func TestUnpackDecisionSetsEveryField(t *testing.T) {
	for _, size := range []int{4, 0} {
		unpackOverStale(t, NewRecorder("h0", size, nil))
	}
}

func unpackOverStale(t *testing.T, r *Recorder) {
	r.Record(Record{T: t0, Kind: KindDecision, App: "a", User: "u", Right: "use"})
	var stale Record
	v := reflect.ValueOf(&stale).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(7)
		case reflect.Struct: // a time.Time
			f.Set(reflect.ValueOf(t0.Add(time.Hour)))
		default:
			t.Fatalf("Record.%s is a %s: teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
	}
	var fresh Record
	r.mu.Lock()
	r.unpackDecision(0, &stale)
	r.unpackDecision(0, &fresh)
	r.mu.Unlock()
	if !reflect.DeepEqual(stale, fresh) {
		t.Fatalf("unpacking over a used record leaves some of it:\n got %+v\nwant %+v", stale, fresh)
	}
}

// TestFlightRecordRoundTripConcurrent: writers of all seven kinds race All,
// Dump and a sink. Every record read — by each pass, and by the sink — must
// be one a writer wrote, as it wrote it, each read's records in strictly
// increasing Seq order.
func TestFlightRecordRoundTripConcurrent(t *testing.T) { roundTripConcurrent(t, 256) }

// TestZeroWindowJournal: a journal of windows of size 0, which the
// simulator gives every node of a world it will not dump, builds each record
// in one slot its writers share under the lock. Racing writers of all seven
// kinds, its sink still gets every decision and response as written, while
// it counts every record, yields none from All or Dump, and drops all it
// accepted; once its names are in its table a record allocates nothing.
func TestZeroWindowJournal(t *testing.T) {
	r, decisions := roundTripConcurrent(t, 0)
	if d := r.Dump(); len(d.Records) != 0 || d.Header.Dropped != r.Total() || r.Dropped() != r.Total() {
		t.Errorf("dump of %d records dropping %d, Dropped %d; want none, dropping all %d", len(d.Records),
			d.Header.Dropped, r.Dropped(), r.Total())
	}
	if r.Decisions() != decisions {
		t.Errorf("Decisions = %d, want %d", r.Decisions(), decisions)
	}
	var sunk int
	r.SetSink(sinkFunc(func(Record) { sunk++ }))
	ev := trace.Event{Time: t0, Type: trace.EventQuerySent, App: "app", User: "u", Peer: "m0", Trace: 7}
	rec := Record{Kind: KindDecision, T: t0, App: "app", User: "u", Right: "use", Reason: ReasonQuorumAllow,
		Allowed: true, Confirmations: 2, Managers: "m0,m1"}
	for name, fn := range map[string]func(){
		"RecordEvent":    func() { r.RecordEvent(ev) },
		"Record":         func() { r.Record(rec) },
		"RecordCacheHit": func() { r.RecordCacheHit(t0, 7, "app", "u", wire.RightUse, 2, time.Minute) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs > 0 {
			t.Errorf("%s into a zero window allocates %.1f objects/op, want 0", name, allocs)
		}
	}
	if sunk != 2*1001 {
		t.Errorf("sink got %d records, want %d", sunk, 2*1001)
	}
}

// roundTripConcurrent runs TestFlightRecordRoundTripConcurrent against a
// journal of windows of size, which it returns with how many decision
// records it was handed.
func roundTripConcurrent(t *testing.T, size int) (*Recorder, uint64) {
	const writers, each = 4, 400
	clock := clocks[2].at // the clock a live node runs on
	rng := rand.New(rand.NewSource(1))
	byTrace := make(map[uint64]Record)
	recs := make([][]Record, writers)
	var decided, decisions uint64
	for w := range recs {
		for len(recs[w]) < each {
			rec := randomRecord(rng, clock)
			if rec.T.IsZero() {
				rec.T = clock(0)
			}
			if _, dup := byTrace[rec.Trace]; !dup {
				byTrace[rec.Trace] = model(rec, "n0", 0)
				recs[w] = append(recs[w], rec)
				if rec.Kind.decided() {
					decided++
				}
				if byTrace[rec.Trace].Kind == KindDecision {
					decisions++
				}
			}
		}
	}
	r := NewRecorder("n0", size, nil)
	check := func(via string, rec *Record, after *uint64) {
		want := byTrace[rec.Trace]
		want.Seq = rec.Seq
		if diff := same(*rec, want); diff != "" {
			t.Errorf("%s: record %d: %s\n got %+v\nwant %+v", via, rec.Seq, diff, *rec, want)
		}
		if rec.Seq < *after {
			t.Errorf("%s: record %d after record %d", via, rec.Seq, *after-1)
		}
		*after = rec.Seq + 1
	}
	var sunk, sinkAfter uint64
	r.SetSink(sinkFunc(func(rec Record) {
		check("sink", &rec, &sinkAfter)
		sunk++
	}))
	var wg sync.WaitGroup
	for w := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rec := range recs[w] {
				write(r, rec)
				runtime.Gosched()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		var after, n uint64
		for rec := range r.All() {
			check("All", rec, &after)
			n++
		}
		after = 0
		for _, rec := range r.Dump().Records {
			check("Dump", &rec, &after)
			n++
		}
		if n > 4*uint64(size) {
			t.Fatalf("All and Dump read %d records from two windows of %d", n, size)
		}
	}
	if sunk != decided || r.Total() != writers*each {
		t.Fatalf("sink saw %d records, journal accepted %d; want %d and %d", sunk, r.Total(), decided, writers*each)
	}
	return r, decisions
}

type sinkFunc func(Record)

func (f sinkFunc) Accept(r *Record) { f(*r) }

// TestFlightBytesPerRecord: full windows of 65 536 records each must cost at
// most 88 bytes of live heap per protocol record and 96 per decision; the
// user ids are the caller's, and every other name is an index.
func TestFlightBytesPerRecord(t *testing.T) {
	const size = 1 << 16
	users := make([]string, size)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
	}
	if ProtocolSlotBytes > 80 || DecisionSlotBytes > 88 {
		t.Errorf("slots are %d B and %d B, budgets 80 and 88", ProtocolSlotBytes, DecisionSlotBytes)
	}
	prev := liveHeap()
	r := NewRecorder("h0", size, nil)
	for _, window := range []struct {
		name   string
		budget float64
		write  func(user string)
	}{
		{"protocol", 88, func(u string) {
			r.Record(Record{T: t0, Kind: KindProtocol, Type: "query-sent", Trace: 1, App: "app", User: u})
		}},
		{"decision", 96, func(u string) { r.RecordCacheHit(t0, 1, "app", u, wire.RightUse, 2, time.Minute) }},
	} {
		for _, u := range users {
			window.write(u)
		}
		now := liveHeap()
		if per := float64(now-prev) / size; per > window.budget {
			t.Errorf("%.1f B of live heap per retained %s record, want <= %.0f", per, window.name, window.budget)
		} else {
			t.Logf("%.1f B per retained %s record", per, window.name)
		}
		prev = now
	}
	runtime.KeepAlive(r)
	runtime.KeepAlive(users)
}

// fillNames adds names to r's table until it is left short of full and
// holds off its tidy: the state between two tidies of a journal whose
// windows name more than half of trace.MaxNames names, which only a window
// far larger than acnode's default can.
func fillNames(r *Recorder, left int) {
	for j := 0; r.names.Len() < trace.MaxNames-left; j++ {
		r.names.Index("other" + strconv.Itoa(j))
	}
	r.tidyAt = math.MaxInt
}

// perName is at most what a name of n bytes costs a journal's table: its
// allocation, rounded up to its size class, a slice element with append's
// slack, and its share of the slots.
func perName(n int) int { return n + n/8 + 16 + 2*16 + 8 }

// windowNames returns how many names the records of r's decisions window
// name, and how many of them spilled. A slot that did not spill must keep
// nothing beside it. Must be called with r.mu held.
func windowNames(t *testing.T, r *Recorder) (names, spilled int) {
	seen := make(map[uint16]bool)
	for i := r.decided.oldest(); i < r.decided.next; i++ {
		s := r.decided.at(i)
		if s.flags&flagSpilled != 0 {
			spilled++
		} else if r.decided.kept(i) != (recordNames{}) {
			t.Errorf("record %d needs no spill, but its slot keeps %+v", s.seq, r.decided.kept(i))
		}
		for _, n := range []uint16{s.app, s.right, s.managers, s.peer, s.origin} {
			seen[n] = n != 0
		}
	}
	for _, ok := range seen {
		if ok {
			names++
		}
	}
	return names, spilled
}

// TestJournalNamesBounded: a manager journals the App and the querying host
// of every query, names its peers choose. Writers racing a reader hand it
// 200,000 responses, a third from h0 for stocks and the rest each naming a
// new app and a new host, a fifth of those 200 bytes long. Every record read
// back — by the reader while they race, by the sink, and from All and Dump
// after — is the one written, and the journal's live heap stays within its
// bound: its slots and at most twice the names they name, none spilled; or,
// with a full table (fillNames), the table and for each slot a spill entry,
// kept only while its record needs it, and the names it pins.
func TestJournalNamesBounded(t *testing.T) {
	for _, full := range []bool{false, true} {
		journalNamesBounded(t, full)
	}
}

func journalNamesBounded(t *testing.T, full bool) {
	const size, writers, each = 4096, 4, 50_000
	long := strings.Repeat("x", 200)
	name := func(prefix string, n uint64) string {
		if n%5 == 0 {
			return long + prefix + strconv.FormatUint(n, 10)
		}
		return prefix + strconv.FormatUint(n, 10)
	}
	response := func(n uint64) Record {
		rec := Record{T: t0.Add(time.Duration(n) * time.Microsecond), Node: "m0", Kind: KindResponse, Trace: n,
			App: "stocks", User: "u0", Right: "use", Reason: ReasonQueryGranted, Peer: "h0", Origin: "m1",
			Counter: n, Expire: time.Minute}
		if n%3 != 0 {
			rec.App, rec.Peer = name("app", n), name("h", n)
		}
		return rec
	}
	check := func(via string, rec *Record) {
		want := response(rec.Trace)
		want.Seq = rec.Seq
		if diff := same(*rec, want); diff != "" {
			t.Errorf("full %v: %s: record %d: %s\n got %+v\nwant %+v", full, via, rec.Seq, diff, *rec, want)
		}
	}
	prev := liveHeap()
	r := NewRecorder("m0", size, nil)
	if full {
		fillNames(r, 2000)
	}
	var sunk int
	r.SetSink(sinkFunc(func(rec Record) {
		check("sink", &rec)
		sunk++
	}))
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				r.Record(response(uint64(w*each + i)))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// A pass holds the journal's lock while it checks a window: a few
	// passes, each after the writers have had the lock, are the race.
	for range 8 {
		runtime.Gosched()
		for rec := range r.All() {
			check("All", rec)
		}
	}
	<-done
	var retained int
	for rec := range r.All() {
		check("All", rec)
		retained++
	}
	for _, rec := range r.Dump().Records {
		check("Dump", &rec)
	}
	if sunk != writers*each || retained != size {
		t.Fatalf("full %v: sink saw %d records, All %d; want %d and %d", full, sunk, retained, writers*each, size)
	}
	r.mu.Lock()
	names, spilled := windowNames(t, r)
	table := r.names.Len()
	r.mu.Unlock()
	bound := size * (DecisionSlotBytes + 2*2*perName(len(long)+8))
	if full {
		if spilled == 0 || spilled == size {
			t.Errorf("%d of %d retained records spilled, want some but not all", spilled, size)
		}
		bound = (trace.MaxNames-2000)*perName(len("other65535")) + 2000*perName(len(long)+8) +
			size*(DecisionSlotBytes+int(unsafe.Sizeof(recordNames{}))+2*perName(len(long)+8))
	} else if spilled != 0 || table > 2*names+minTidy {
		t.Errorf("%d records spilled; the table holds %d names for the %d its window names", spilled, table, names)
	}
	if heap := liveHeap() - prev; heap > int64(bound) {
		t.Errorf("full %v: journal holds %d B of live heap, bound %d", full, heap, bound)
	} else {
		t.Logf("full %v: journal holds %d B of live heap (%d names for the %d its window names), bound %d",
			full, heap, table, names, bound)
	}
	runtime.KeepAlive(r)
}

// TestJournalNamesFollowWindow: a journal's name table keeps the names its
// windows name, not every name it was ever handed. In a world of 20
// managers, a manager answers 100,000 queries, each from a host it has not
// heard from before, and a host records 100,000 quorum allows, each granted
// by a different 10 of the managers: more hosts and more granting sets than
// a table has indices. Neither journal spills a record, each table holds at
// most twice the names its window names (plus minTidy), every retained
// record reads back as written, and one costs at most its slot and twice
// its new name's share of the table.
func TestJournalNamesFollowWindow(t *testing.T) {
	const size, n = 4096, 100_000
	managers := make([]string, 20)
	for i := range managers {
		managers[i] = fmt.Sprintf("manager-%02d.wan.example.net:7000", i)
	}
	// granted is the k-th granting set: the managers in the bits of the
	// k-th 20-bit mask with 10 set bits (Gosper's hack).
	mask := uint32(1)<<10 - 1
	granted := func() string {
		var set []string
		for i := range managers {
			if mask&(1<<i) != 0 {
				set = append(set, managers[i])
			}
		}
		c := mask & -mask
		next := mask + c
		mask = ((next^mask)>>2)/c | next
		return strings.Join(set, ",")
	}
	for _, node := range []struct {
		name   string
		record func(i int) Record
	}{
		{"manager", func(i int) Record {
			return Record{T: t0, Kind: KindResponse, Trace: uint64(i), App: "stocks", User: "u0", Right: "use",
				Reason: ReasonQueryGranted, Peer: fmt.Sprintf("host-%06d.wan.example.net:7001", i), Origin: managers[3],
				Counter: uint64(i), Expire: time.Minute}
		}},
		{"host", func(i int) Record {
			return Record{T: t0, Kind: KindDecision, Trace: uint64(i), App: "stocks", User: "u0", Right: "use",
				Reason: ReasonQuorumAllow, Allowed: true, Set: 20, Attempts: 1, Queried: 10, Quorum: 10,
				Confirmations: 10, Managers: granted(), Expire: time.Minute, Expiry: t0.Add(time.Minute)}
		}},
	} {
		last, longest := make([]Record, 0, size), 0
		prev := liveHeap()
		r := NewRecorder(node.name, size, nil)
		for i := range n {
			rec := node.record(i)
			r.Record(rec)
			if i >= n-size {
				rec.Node, rec.Seq = node.name, uint64(i)
				last = append(last, rec)
			}
			longest = max(longest, len(rec.Peer), len(rec.Managers))
		}
		heap := liveHeap() - prev
		sameAll(t, node.name, r.Snapshot(), last)
		r.mu.Lock()
		names, spilled := windowNames(t, r)
		table := r.names.Len()
		r.mu.Unlock()
		if spilled != 0 || table > 2*names+minTidy {
			t.Errorf("%s: %d records spilled; the table holds %d names for the %d its window names",
				node.name, spilled, table, names)
		}
		if per, bound := float64(heap)/size, DecisionSlotBytes+2*perName(longest); per > float64(bound) {
			t.Errorf("%s: %.1f B of live heap per retained record, bound %d", node.name, per, bound)
		} else {
			t.Logf("%s: %.1f B of live heap per retained record (%d names for the %d its window names), bound %d",
				node.name, per, table, names, bound)
		}
		runtime.KeepAlive(r)
	}
}

// TestSlotStrings: a decision slot keeps one string, the user id, and a
// protocol slot two, the user id and the note; every other name is an index
// into the journal's name table, so a field added as a string fails here
// before it re-grows a slot.
func TestSlotStrings(t *testing.T) {
	for _, slot := range []struct {
		typ  reflect.Type
		want int
	}{{reflect.TypeFor[decisionSlot](), 1}, {reflect.TypeFor[protocolSlot](), 2}} {
		var strs []string
		for i := range slot.typ.NumField() {
			if f := slot.typ.Field(i); f.Type.Kind() == reflect.String {
				strs = append(strs, f.Name)
			}
		}
		if len(strs) != slot.want {
			t.Errorf("%v keeps strings %v, want %d", slot.typ, strs, slot.want)
		}
	}
}

// liveHeap returns the bytes a full collection finds live.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
