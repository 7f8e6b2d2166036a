package trace

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wanac/internal/wire"
)

// TestEventTypeString pins every defined type's stable name (they are dump
// field values and metric label values). The length check makes a new
// constant fail here until it has both a table row and a name.
func TestEventTypeString(t *testing.T) {
	names := []struct {
		et   EventType
		want string
	}{
		{EventAccessAllowed, "access-allowed"},
		{EventAccessDenied, "access-denied"},
		{EventAccessDefault, "access-default"},
		{EventCacheHit, "cache-hit"},
		{EventCacheExpired, "cache-expired"},
		{EventQuerySent, "query-sent"},
		{EventQueryTimeout, "query-timeout"},
		{EventGrantCached, "grant-cached"},
		{EventRevokeApplied, "revoke-applied"},
		{EventUpdateIssued, "update-issued"},
		{EventUpdateApplied, "update-applied"},
		{EventUpdateQuorum, "update-quorum"},
		{EventFrozen, "frozen"},
		{EventUnfrozen, "unfrozen"},
		{EventSynced, "synced"},
		{EventQueryServed, "query-served"},
		{EventQueryShed, "query-shed"},
		{EventCheckBackoff, "check-backoff"},
		{EventTeAdapted, "te-adapted"},
	}
	if len(names) != int(numEventTypes)-1 {
		t.Fatalf("table has %d rows for %d defined event types", len(names), int(numEventTypes)-1)
	}
	for i, row := range names {
		if row.et != EventType(i+1) {
			t.Errorf("row %d is type %d: the numeric values are part of the dump format", i, row.et)
		}
		if got := row.et.String(); got != row.want {
			t.Errorf("EventType(%d).String() = %q, want %q", row.et, got, row.want)
		}
	}
	for _, unknown := range []EventType{0, numEventTypes, 200} {
		if got, want := unknown.String(), fmt.Sprintf("event-%d", uint8(unknown)); got != want {
			t.Errorf("unknown type string = %q, want %q", got, want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Time: time.Date(2000, 1, 1, 12, 30, 45, 0, time.UTC),
		Node: "h0", Type: EventAccessDenied, App: "stocks", User: "alice", Word: WordRevoked,
	}
	s := e.String()
	for _, frag := range []string{"12:30:45", "h0", "access-denied", "app=stocks", "user=alice", "revoked"} {
		if !strings.Contains(s, frag) {
			t.Errorf("event string %q missing %q", s, frag)
		}
	}
	bare := Event{Node: "m1", Type: EventFrozen}.String()
	if strings.Contains(bare, "app=") || strings.Contains(bare, "user=") {
		t.Errorf("bare event string has empty fields: %q", bare)
	}
}

// TestNoteRendering pins the text every note format renders to, as the
// protocol nodes formatted it when they emitted it; transcripts, flight dumps
// and the process log depend on it byte for byte.
func TestNoteRendering(t *testing.T) {
	for _, row := range []struct {
		e    Event
		want string
	}{
		{Event{Type: EventQuerySent, Num: Pair(2, 3)}, "round=2 managers=3"},
		{Event{Type: EventQuerySent, Num: Pair(1, 1)}, "round=1 managers=1"},
		{Event{Type: EventQueryTimeout, Num: 4}, "round=4"},
		{Event{Type: EventCheckBackoff, Num: int64(1500 * time.Millisecond)}, "delay=1.5s"},
		{Event{Type: EventCheckBackoff}, "delay=0s"},
		{Event{Type: EventQueryShed, Peer: "h3", Num: int64(250 * time.Millisecond)}, "host=h3 retry=250ms"},
		{Event{Type: EventQueryServed, Peer: "h0", Word: WordGranted}, "host=h0 granted"},
		{Event{Type: EventQueryServed, Peer: "h0", Word: WordDenied}, "host=h0 denied"},
		{Event{Type: EventQueryServed, Peer: "h1", Word: WordFrozen}, "host=h1 frozen"},
		{Event{Type: EventQueryServed, Peer: "h2", Word: WordUnknownApp}, "host=h2 unknown-app"},
		{Event{Type: EventTeAdapted, Num: int64(2 * time.Second)}, "te=2s"},
		{Event{Type: EventSynced, Num: 12}, "entries=12"},
		{Event{Type: EventSynced}, "entries=0"},
		{Event{Type: EventAccessDefault, Num: 3}, "attempts=3"},
		{Event{Type: EventGrantCached, Num: 2}, "confirmations=2"},
		{Event{Type: EventAccessAllowed, Word: WordQuorum}, "quorum"},
		{Event{Type: EventAccessDenied, Word: WordRevoked}, "revoked"},
		{Event{Type: EventAccessDenied, Word: WordUnreachable}, "unreachable"},
		{Event{Type: EventAccessDenied, Word: WordUnregistered}, "unregistered"},
		{Event{Type: EventAccessDenied, Word: WordResolveFailed}, "resolve-failed"},
		{Event{Type: EventAccessDefault, Word: WordResolveFailed}, "resolve-failed"},
		{Event{Type: EventUpdateIssued, Word: OpWord(wire.OpRevoke)}, "revoke"},
		{Event{Type: EventUpdateQuorum, Word: OpWord(wire.OpAdd)}, "add"},
		{Event{Type: EventUpdateIssued, Word: OpWord(0)}, "invalid"},
		{Event{Type: EventUpdateApplied, Word: OpWord(wire.OpRevoke), Peer: "m1"}, "revoke from m1"},
		{Event{Type: EventUpdateApplied, Word: OpWord(wire.OpAdd), Peer: "m0"}, "add from m0"},
		{Event{Type: EventUpdateApplied, Word: WordForced}, "forced"},
		{Event{Type: EventCacheHit}, ""},
		{Event{Type: EventCacheExpired}, ""},
		{Event{Type: EventRevokeApplied}, ""},
		{Event{Type: EventFrozen}, ""},
		{Event{Type: EventUnfrozen}, ""},
	} {
		if got := row.e.Note(); got != row.want {
			t.Errorf("%s %+v renders %q, want %q", row.e.Type, row.e, got, row.want)
		}
	}
	for w := WordQuorum; w < numWords; w++ {
		if w.String() == "" {
			t.Errorf("Word(%d) has no text", w)
		}
	}
}

func TestNopTracer(t *testing.T) {
	Nop{}.Emit(Event{Type: EventFrozen}) // must not panic
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Node: "a", Type: EventCacheHit})
	c.Emit(Event{Node: "a", Type: EventCacheHit})
	c.Emit(Event{Node: "b", Type: EventQuerySent})

	if c.Count(EventCacheHit) != 2 || c.Count(EventQuerySent) != 1 || c.Count(EventFrozen) != 0 {
		t.Error("counts wrong")
	}
	if got := len(c.Events()); got != 3 {
		t.Errorf("Events() len = %d", got)
	}
	var nodes string
	for e := range c.All() {
		nodes += string(e.Node)
	}
	if nodes != "aab" {
		t.Errorf("All yields nodes %q, want aab", nodes)
	}
	c.Reset()
	if c.Count(EventCacheHit) != 0 || len(c.Events()) != 0 {
		t.Error("Reset incomplete")
	}
}

// TestCollectorUnboundedChunks crosses several chunk boundaries: nothing is
// dropped and order holds across the seams.
func TestCollectorUnboundedChunks(t *testing.T) {
	c := NewCollector()
	total := 3*chunkEvents + 17
	for i := 0; i < total; i++ {
		c.Emit(Event{Type: EventQuerySent, Trace: uint64(i)})
	}
	evs := c.Events()
	if len(evs) != total {
		t.Fatalf("retained %d, want %d", len(evs), total)
	}
	for i, e := range evs {
		if e.Trace != uint64(i) {
			t.Fatalf("Events()[%d] is event %d", i, e.Trace)
		}
	}
}

// roundTrip checks that the collector gives back exactly the events in:
// each time is Equal to the one emitted and, when in shares loc, is the
// same value once a monotonic reading is stripped; every other field is
// unchanged.
func roundTrip(t *testing.T, c *Collector, in []Event, loc *time.Location) {
	t.Helper()
	var all []Event
	for e := range c.All() {
		all = append(all, *e)
	}
	for name, out := range map[string][]Event{"All": all, "Events": c.Events()} {
		if len(out) != len(in) {
			t.Fatalf("%s: %d events, want %d", name, len(out), len(in))
		}
		for i, want := range in {
			got := out[i]
			if !got.Time.Equal(want.Time) || (loc != nil && !want.Time.IsZero() && got.Time != want.Time.Round(0).In(loc)) {
				t.Errorf("%s[%d].Time = %v, want %v", name, i, got.Time, want.Time)
			}
			if got.Time = want.Time; got != want {
				t.Errorf("%s[%d] = %+v, want %+v", name, i, got, want)
			}
		}
	}
}

// TestCollectorRoundTrip: every Event field survives Emit -> All/Events,
// for the zero time, a non-UTC Location, times centuries apart on both
// sides of the epoch, a monotonic reading, empty ids and Seq.
func TestCollectorRoundTrip(t *testing.T) {
	loc := time.FixedZone("IST", 5*3600+1800)
	at := time.Date(2026, 10, 17, 4, 21, 0, 123456789, loc)
	in := []Event{
		{Type: EventFrozen}, // zero time, empty ids, zero Seq
		{Time: at, Node: "h0", Type: EventAccessAllowed, App: "stocks", User: "alice", Word: WordQuorum, Trace: 1<<64 - 1},
		{Time: at.AddDate(124, 0, 0), Node: "m1", Type: EventUpdateIssued, User: "bob",
			Seq: wire.UpdateSeq{Origin: "m1", Counter: 1<<64 - 1}},
		{Time: at.AddDate(-125, 0, 0).Add(-1), Node: "m2", Type: EventUpdateApplied, App: "stocks",
			Seq: wire.UpdateSeq{Origin: "m1", Counter: 7}},
		{Time: at.Add(-time.Nanosecond), Node: "h0", Type: EventCacheHit, App: "news", User: "alice", Trace: 42},
		{Time: time.Now().In(loc), Node: "h1", Type: EventType(255), Word: Word(255), Peer: "h0", Num: math.MinInt64},
		{Time: time.Time{}.In(loc), Node: "h1", Type: EventQuerySent, Seq: wire.UpdateSeq{Counter: 3}},
		// Detail: a peer, a word, a number in Seq.Counter's place, the
		// update-applied peer beside a Seq, and a number beside a Seq.
		{Time: at, Node: "m0", Type: EventQueryShed, App: "stocks", User: "alice", Peer: "h0", Num: int64(time.Second), Trace: 9},
		{Time: at, Node: "m0", Type: EventQueryServed, Peer: "h1", Word: WordGranted, Trace: 9},
		{Time: at, Node: "h0", Type: EventQuerySent, Num: Pair(7, 2), Trace: 9},
		{Time: at, Node: "m2", Type: EventUpdateApplied, Word: WordRevoke, Peer: "m1", Seq: wire.UpdateSeq{Origin: "m1", Counter: 8}},
		{Time: at, Node: "m2", Type: EventSynced, Num: -1, Seq: wire.UpdateSeq{Origin: "m1", Counter: 8}},
	}
	c := NewCollector()
	for _, e := range in {
		c.Emit(e)
	}
	roundTrip(t, c, in, loc)

	// Times in other Locations come back in the first one's, as instants.
	mixed := []Event{
		{Time: at.UTC(), Node: "h0", Type: EventCacheHit},
		{Time: at.Add(time.Hour), Node: "h0", Type: EventCacheHit},
		{Time: time.Now(), Node: "h0", Type: EventCacheHit},
	}
	c.Reset()
	for _, e := range mixed {
		c.Emit(e)
	}
	roundTrip(t, c, mixed, time.UTC)
}

// TestCollectorBytesPerEvent: the log keeps an event in at most 56 bytes
// (its strings are the caller's; its detail is fixed-size).
func TestCollectorBytesPerEvent(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 56 {
		t.Fatalf("record is %d bytes, budget 56", got)
	}
}

// TestCollectorNameTableFull: once Node, App, Seq.Origin and Peer have used all
// 65,535 indices, an event naming a new string is kept whole, never under
// another name's index; known names still pack, no side map exists until one
// is needed, and Reset empties the table.
func TestCollectorNameTableFull(t *testing.T) {
	c := NewCollector()
	var in []Event
	emit := func(e Event) {
		in = append(in, e)
		c.Emit(e)
	}
	for i := range math.MaxUint16 {
		emit(Event{Node: wire.NodeID("n" + strconv.Itoa(i)), Type: EventQuerySent, Trace: uint64(i)})
	}
	if len(c.names) != math.MaxUint16+1 || c.spill != nil {
		t.Fatalf("after 65,535 names: table %d, spill map %v (want none yet)", len(c.names), c.spill)
	}
	emit(Event{Node: "n1", Type: EventCacheHit, App: "n0"})
	emit(Event{Node: "n2", Type: EventCacheHit, App: "n3", User: "u"})
	emit(Event{Node: "n4", Type: EventUpdateIssued, Seq: wire.UpdateSeq{Origin: "origin", Counter: 1}})
	emit(Event{Node: "late", Type: EventCacheHit, App: "n5"})
	emit(Event{Node: "n6", Type: EventCacheHit, App: "app"})
	emit(Event{Node: "n7", Type: EventQueryServed, Peer: "h9", Word: WordGranted})
	emit(Event{Node: "n8", Type: EventQueryServed, Peer: "n9", Word: WordDenied})
	if len(c.names) != math.MaxUint16+1 || len(c.spill) != 4 {
		t.Fatalf("full table: %d names, %d events spilled, want 65,536 and 4", len(c.names), len(c.spill))
	}
	roundTrip(t, c, in, nil)
	c.Reset()
	c.Emit(Event{Node: "late", Type: EventCacheHit})
	if c.spill != nil || len(c.names) != 2 || c.Events()[0].Node != "late" {
		t.Fatalf("after Reset: %d names, %d spilled", len(c.names), len(c.spill))
	}
}

// TestCollectorRoundTripConcurrent: emitters race a reader; every event the
// reader sees is whole (its fields agree with its Trace), and the log ends
// with all of them.
func TestCollectorRoundTripConcurrent(t *testing.T) {
	const writers, each = 4, 500
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	event := func(w, i int) Event {
		n := uint64(w*each + i)
		e := Event{Time: t0.Add(time.Duration(n) * time.Millisecond), Node: wire.NodeID("n" + strconv.Itoa(w)),
			Type: EventType(n%uint64(numEventTypes) + 1), App: wire.AppID("a" + strconv.Itoa(i%7)),
			User: wire.UserID("u" + strconv.Itoa(i%13)), Trace: n,
			Word: Word(i % int(numWords)), Peer: wire.NodeID("h" + strconv.Itoa(i%5))}
		if i%2 == 0 {
			e.Seq = wire.UpdateSeq{Origin: wire.NodeID("m" + strconv.Itoa(i%3)), Counter: n}
		} else {
			e.Num = int64(i) - each/2
		}
		return e
	}
	check := func(e *Event) {
		w, i := int(e.Trace)/each, int(e.Trace)%each
		if want := event(w, i); *e != want {
			t.Fatalf("read %+v, emitted %+v", *e, want)
		}
	}
	c := NewCollector()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				c.Emit(event(w, i))
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
		for e := range c.All() {
			check(e)
		}
	}
	evs := c.Events()
	if len(evs) != writers*each {
		t.Fatalf("log holds %d events, want %d", len(evs), writers*each)
	}
	for i := range evs {
		check(&evs[i])
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Emit(Event{Type: EventCacheHit})
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Events()
		c.Count(EventCacheHit)
	}
	<-done
	if c.Count(EventCacheHit) != 1000 {
		t.Errorf("Count = %d", c.Count(EventCacheHit))
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
