package flight

import (
	"math/rand"
	"reflect"
	"runtime"
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

// randomRecord draws a record covering every field, T from at (zero about a
// third of the time), as the caller hands it to the recorder.
func randomRecord(rng *rand.Rand, at func(time.Duration) time.Time) Record {
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return "s" + strconv.Itoa(rng.Intn(100))
	}
	rec := Record{Kind: Kind(1 + rng.Intn(int(KindMark))), Type: str(), Trace: rng.Uint64(), App: str(), User: str(),
		Origin: str(), Counter: rng.Uint64(), Peer: str(), Note: str()}
	if rng.Intn(3) != 0 {
		rec.T = at(time.Duration(rng.Int63n(int64(200*365*24*time.Hour))) - 100*365*24*time.Hour)
	}
	return rec
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

// write hands rec to r: through RecordEvent when a trace event can carry
// it, through Record otherwise.
func write(r *Recorder, rec Record) {
	if e, ok := event(rec); ok {
		r.RecordEvent(e)
	} else {
		r.Record(rec)
	}
}

// model is what a recorder must give back for rec, written by write, as
// record seq of node. A zero T stays zero: it reads back as the recorder's
// clock.
func model(rec Record, node string, seq uint64) Record {
	if e, ok := event(rec); ok {
		rec = modelRecord(e)
	}
	rec.Node, rec.Seq = node, seq
	return rec
}

// same reports how got differs from want, or "": T must be Equal and in the
// same Location, everything else reflect.DeepEqual.
func same(got, want Record) string {
	if !got.T.Equal(want.T) || got.T.Location() != want.T.Location() {
		return "time " + got.T.String() + ", want " + want.T.String()
	}
	got.T, want.T = time.Time{}, time.Time{}
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

// TestFlightRecordRoundTrip: whatever a recorder is handed, through Record
// or RecordEvent, reads back from Snapshot and the dump as it was given —
// stamped with Node and Seq, a zero T with the recorder's clock — for each
// kind of clock, over slots that held other records.
func TestFlightRecordRoundTrip(t *testing.T) {
	for i, clock := range clocks {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		var last time.Time
		r := NewRecorder("n"+strconv.Itoa(i), 128, func() time.Time {
			last = clock.at(time.Duration(rng.Intn(1000)) * time.Millisecond)
			return last
		})
		var want []Record
		for seq := uint64(0); seq < 500; seq++ {
			rec := randomRecord(rng, clock.at)
			write(r, rec)
			if rec = model(rec, r.node, seq); rec.T.IsZero() {
				rec.T = last
			}
			want = append(want, rec)
		}
		want = want[len(want)-128:]
		sameAll(t, clock.name+" Snapshot", r.Snapshot(), want)
		sameAll(t, clock.name+" Dump", r.Dump().Records, want)
	}
}

// TestFlightRecordRoundTripConcurrent: writers race Snapshot and Dump. Every
// record read must be one a writer wrote, as it wrote it, and each read's
// records consecutive.
func TestFlightRecordRoundTripConcurrent(t *testing.T) {
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
				byTrace[rec.Trace] = model(rec, "n0", 0)
				recs[w] = append(recs[w], rec)
			}
		}
	}
	r := NewRecorder("n0", 256, nil)
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
		for _, got := range [][]Record{r.Snapshot(), r.Dump().Records} {
			for i, rec := range got {
				want := byTrace[rec.Trace]
				want.Seq = got[0].Seq + uint64(i)
				if diff := same(rec, want); diff != "" {
					t.Fatalf("record %d: %s\n got %+v\nwant %+v", want.Seq, diff, rec, want)
				}
			}
		}
	}
	if r.Total() != writers*each {
		t.Fatalf("recorder accepted %d records, want %d", r.Total(), writers*each)
	}
}

// TestFlightBytesPerRecord: a full ring of 65 536 records must cost at most
// 136 bytes of live heap per record; the strings are the caller's.
func TestFlightBytesPerRecord(t *testing.T) {
	const budget, size = 136, 1 << 16
	users := make([]string, size)
	for i := range users {
		users[i] = "u" + strconv.Itoa(i)
	}
	prev := liveHeap()
	r := NewRecorder("h0", size, nil)
	for _, u := range users {
		r.Record(Record{T: t0, Kind: KindProtocol, Type: "query-sent", Trace: 1, App: "app", User: u})
	}
	if SlotBytes > 128 {
		t.Errorf("slot is %d B, budget 128", SlotBytes)
	}
	if per := float64(liveHeap()-prev) / size; per > budget {
		t.Errorf("%.1f B of live heap per retained record, want <= %d", per, budget)
	} else {
		t.Logf("%.1f B per retained record (slot %d B)", per, SlotBytes)
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
