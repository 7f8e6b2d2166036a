package flight

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

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
	return Record{
		T: when(), Kind: Kind(1 + rng.Intn(int(KindResponse))), Type: str(), Trace: rng.Uint64(),
		App: str(), User: str(), Right: str(), Origin: str(), Counter: rng.Uint64(), Peer: str(), Note: str(),
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

func isHit(rec Record) bool { return rec.Kind == KindDecision && rec.Reason == ReasonCacheHit }

// write hands rec to r: through RecordEvent when a trace event can carry
// it, through RecordCacheHit when it is a cache hit's record, through Record
// otherwise.
func write(r *Recorder, rec Record) {
	if e, ok := event(rec); ok {
		r.RecordEvent(e)
	} else if isHit(rec) {
		r.RecordCacheHit(rec.T, rec.Trace, rec.App, rec.User, rec.Right, rec.Granters, rec.Expiry)
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
// the same Location, everything else reflect.DeepEqual.
func same(got, want Record) string {
	for _, p := range [][2]time.Time{{got.T, want.T}, {got.Expiry, want.Expiry}} {
		if !p[0].Equal(p[1]) || p[0].Location() != p[1].Location() {
			return "time " + p[0].String() + ", want " + p[1].String()
		}
	}
	got.T, got.Expiry, want.T, want.Expiry = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
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
// that held other records.
func TestFlightRecordRoundTrip(t *testing.T) {
	for i, clock := range clocks {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		var last time.Time
		r := NewRecorder("n"+strconv.Itoa(i), 128, func() time.Time {
			last = clock.at(time.Duration(rng.Intn(1000)) * time.Millisecond)
			return last
		})
		var sunk, want, decided []Record
		r.SetSink(sinkFunc(func(rec Record) { sunk = append(sunk, rec) }))
		for seq := uint64(0); seq < 1000; seq++ {
			rec := randomRecord(rng, clock.at)
			write(r, rec)
			if rec = model(rec, r.Node(), seq); rec.T.IsZero() {
				rec.T = last
			}
			if want = append(want, rec); rec.Kind.decided() {
				decided = append(decided, rec)
			}
		}
		sameAll(t, clock.name+" sink", sunk, decided)
		want = retainedTail(want, 128)
		var all []Record
		for rec := range r.All() {
			all = append(all, *rec)
		}
		sameAll(t, clock.name+" All", all, want)
		sameAll(t, clock.name+" Snapshot", r.Snapshot(), want)
		sameAll(t, clock.name+" Dump", r.Dump().Records, want)
	}
}

// TestFlightRecordRoundTripConcurrent: writers of all seven kinds race All,
// Dump and a sink. Every record read — by each pass, and by the sink — must
// be one a writer wrote, as it wrote it, each read's records in strictly
// increasing Seq order.
func TestFlightRecordRoundTripConcurrent(t *testing.T) {
	const writers, each = 4, 400
	clock := clocks[2].at // the clock a live node runs on
	rng := rand.New(rand.NewSource(1))
	byTrace := make(map[uint64]Record)
	recs := make([][]Record, writers)
	decided := 0
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
			}
		}
	}
	r := NewRecorder("n0", 256, nil)
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
		var after uint64
		for rec := range r.All() {
			check("All", rec, &after)
		}
		after = 0
		for _, rec := range r.Dump().Records {
			check("Dump", &rec, &after)
		}
	}
	if sunk != uint64(decided) || r.Total() != writers*each {
		t.Fatalf("sink saw %d records, journal accepted %d; want %d and %d", sunk, r.Total(), decided, writers*each)
	}
}

type sinkFunc func(Record)

func (f sinkFunc) Accept(r Record) { f(r) }

// TestFlightBytesPerRecord: full windows of 65 536 records each must cost at
// most 136 bytes of live heap per protocol record and 168 per decision; the
// strings are the caller's.
func TestFlightBytesPerRecord(t *testing.T) {
	const size = 1 << 16
	users := make([]string, size)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
	}
	if ProtocolSlotBytes > 128 || DecisionSlotBytes > 160 {
		t.Errorf("slots are %d B and %d B, budgets 128 and 160", ProtocolSlotBytes, DecisionSlotBytes)
	}
	expiry := t0.Add(time.Minute)
	prev := liveHeap()
	r := NewRecorder("h0", size, nil)
	for _, window := range []struct {
		name   string
		budget float64
		write  func(user string)
	}{
		{"protocol", 136, func(u string) {
			r.Record(Record{T: t0, Kind: KindProtocol, Type: "query-sent", Trace: 1, App: "app", User: u})
		}},
		{"decision", 168, func(u string) { r.RecordCacheHit(t0, 1, "app", u, "use", 2, expiry) }},
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

// liveHeap returns the bytes a full collection finds live.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
