package audit_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"wanac/internal/audit"
	. "wanac/internal/flight"
)

// These tests hold the decisions window to its contract through the names
// bench/ builds its nodes with (audit.NewRecorder, audit.Record,
// audit.KindDecision, audit.ReasonCacheHit): what a node that only decides
// and answers writes is what it reads back.

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

// randomRecord draws a decision or response covering every field it keeps,
// times from at (zero about a third of the time), as the caller hands it to
// the recorder.
func randomRecord(rng *rand.Rand, at func(time.Duration) time.Time) audit.Record {
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
	return audit.Record{
		T: when(), Kind: audit.KindDecision + Kind(rng.Intn(2)), Trace: rng.Uint64(),
		App: str(), User: str(), Right: str(),
		Reason: Reason(1 + rng.Intn(NumReasons-1)), Allowed: rng.Intn(2) == 0,
		Set: uint8(rng.Intn(256)), Attempts: count(), Queried: count(), Quorum: count(),
		Confirmations: count(), Denials: count(), Granters: count(), Managers: str(),
		Expire: time.Duration(rng.Int63() - rng.Int63()), Expiry: when(), Backoffs: count(), Frozen: rng.Intn(2) == 0,
		Peer: str(), Origin: str(), Counter: rng.Uint64(),
	}
}

func isHit(rec Record) bool {
	return rec.Kind == audit.KindDecision && rec.Reason == audit.ReasonCacheHit
}

// write hands rec to r: through RecordCacheHit when it is a cache hit's
// record, through Record otherwise.
func write(r *Recorder, rec Record) {
	if isHit(rec) {
		r.RecordCacheHit(rec.T, rec.Trace, rec.App, rec.User, rec.Right, rec.Granters, rec.Expiry)
	} else {
		r.Record(rec)
	}
}

// model is what a recorder must give back for rec, written by write, as
// record seq of node: stamped, a cache hit's evidence only, counts
// saturated. A zero T stays zero: it reads back as the recorder's clock.
func model(rec Record, node string, seq uint64) Record {
	if isHit(rec) {
		rec = Record{T: rec.T, Kind: KindDecision, Trace: rec.Trace, App: rec.App, User: rec.User, Right: rec.Right,
			Reason: ReasonCacheHit, Allowed: true, Granters: rec.Granters, Expiry: rec.Expiry}
	}
	rec.Node, rec.Seq = node, seq
	for _, n := range []*int{&rec.Queried, &rec.Quorum, &rec.Confirmations, &rec.Denials, &rec.Granters} {
		*n = min(max(*n, 0), math.MaxUint8)
	}
	for _, n := range []*int{&rec.Attempts, &rec.Backoffs} {
		*n = min(max(*n, math.MinInt16), math.MaxInt16)
	}
	return rec
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

// TestAuditRecordRoundTrip: whatever decisions and responses a recorder is
// handed, through Record or RecordCacheHit, read back from All, Snapshot,
// the dump and a sink as they were given — stamped with Node and Seq, a zero
// T with the recorder's clock, a count outside its slot's range saturated,
// never wrapped — for each kind of clock, over slots that held other
// records.
func TestAuditRecordRoundTrip(t *testing.T) {
	for i, clock := range clocks {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		var last time.Time
		r := audit.NewRecorder("h"+strconv.Itoa(i), 128, func() time.Time {
			last = clock.at(time.Duration(rng.Intn(1000)) * time.Millisecond)
			return last
		})
		var sunk, want []Record
		r.SetSink(sinkFunc(func(rec Record) { sunk = append(sunk, rec) }))
		for seq := uint64(0); seq < 500; seq++ {
			rec := randomRecord(rng, clock.at)
			write(r, rec)
			if rec = model(rec, r.Node(), seq); rec.T.IsZero() {
				rec.T = last
			}
			want = append(want, rec)
		}
		sameAll(t, clock.name+" sink", sunk, want)
		want = want[len(want)-128:]
		var all []Record
		for rec := range r.All() {
			all = append(all, *rec)
		}
		sameAll(t, clock.name+" All", all, want)
		sameAll(t, clock.name+" Snapshot", r.Snapshot(), want)
		sameAll(t, clock.name+" Dump", r.Dump().Records, want)
	}
}

// TestAuditRecordRoundTripConcurrent: writers of decisions and responses
// race All, Dump and a sink. Every record read — by each pass, and by the
// sink in Seq order — must be one a writer wrote, as it wrote it.
func TestAuditRecordRoundTripConcurrent(t *testing.T) {
	const writers, each = 4, 400
	clock := clocks[2].at // the clock a live node runs on
	rng := rand.New(rand.NewSource(1))
	byTrace := make(map[uint64]Record)
	recs := make([][]Record, writers)
	for w := range recs {
		for len(recs[w]) < each {
			rec := randomRecord(rng, clock)
			if rec.T.IsZero() {
				rec.T = clock(0)
			}
			if _, dup := byTrace[rec.Trace]; !dup {
				byTrace[rec.Trace] = model(rec, "h0", 0)
				recs[w] = append(recs[w], rec)
			}
		}
	}
	r := audit.NewRecorder("h0", 256, nil)
	check := func(via string, rec *Record, seq uint64) {
		want := byTrace[rec.Trace]
		want.Seq = seq
		if diff := same(*rec, want); diff != "" {
			t.Errorf("%s: record %d: %s\n got %+v\nwant %+v", via, seq, diff, *rec, want)
		}
	}
	var sunk uint64
	r.SetSink(sinkFunc(func(rec Record) {
		check("sink", &rec, sunk)
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
		var seq uint64
		first := true
		for rec := range r.All() {
			if first {
				seq, first = rec.Seq, false
			}
			check("All", rec, seq)
			seq++
		}
		for _, rec := range r.Dump().Records {
			check("Dump", &rec, rec.Seq)
		}
	}
	if sunk != writers*each || r.Total() != writers*each {
		t.Fatalf("sink saw %d records, recorder accepted %d; want %d", sunk, r.Total(), writers*each)
	}
	if r.Dropped() != writers*each-256 {
		t.Fatalf("dropped %d, want the %d decisions and responses overwritten", r.Dropped(), writers*each-256)
	}
}

// TestAuditBytesPerRecord: a full decisions window of the 65 536 records a
// harness world keeps must cost at most 168 bytes of live heap per record,
// the protocol window holding none; the strings are the caller's.
func TestAuditBytesPerRecord(t *testing.T) {
	const budget, size = 168, 1 << 16
	users := make([]string, size)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
	}
	expiry := t0.Add(time.Minute)
	prev := liveHeap()
	r := audit.NewRecorder("h0", size, nil)
	for _, u := range users {
		r.RecordCacheHit(t0, 1, "app", u, "use", 2, expiry)
	}
	if per := float64(liveHeap()-prev) / size; per > budget {
		t.Errorf("%.1f B of live heap per retained record, want <= %d", per, budget)
	} else {
		t.Logf("%.1f B per retained record (slot %d B)", per, DecisionSlotBytes)
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
