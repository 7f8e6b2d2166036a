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
		Node: "h0", Type: EventAccessDenied, App: "stocks", User: "alice", Note: "revoked",
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
		{Time: at, Node: "h0", Type: EventAccessAllowed, App: "stocks", User: "alice", Note: "quorum", Trace: 1<<64 - 1},
		{Time: at.AddDate(124, 0, 0), Node: "m1", Type: EventUpdateIssued, User: "bob",
			Seq: wire.UpdateSeq{Origin: "m1", Counter: 1<<64 - 1}},
		{Time: at.AddDate(-125, 0, 0).Add(-1), Node: "m2", Type: EventUpdateApplied, App: "stocks",
			Seq: wire.UpdateSeq{Origin: "m1", Counter: 7}},
		{Time: at.Add(-time.Nanosecond), Node: "h0", Type: EventCacheHit, App: "news", User: "alice", Trace: 42},
		{Time: time.Now().In(loc), Node: "h1", Type: EventType(255), Note: "monotonic"},
		{Time: time.Time{}.In(loc), Node: "h1", Type: EventQuerySent, Seq: wire.UpdateSeq{Counter: 3}},
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

// TestCollectorBytesPerEvent: the log keeps an event in at most 64 bytes
// (its strings are the caller's).
func TestCollectorBytesPerEvent(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 64 {
		t.Fatalf("record is %d bytes, budget 64", got)
	}
}

// TestCollectorNameTableFull: once Node, App and Seq.Origin have used all
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
	if len(c.names) != math.MaxUint16+1 || len(c.spill) != 3 {
		t.Fatalf("full table: %d names, %d events spilled, want 65,536 and 3", len(c.names), len(c.spill))
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
		return Event{Time: t0.Add(time.Duration(n) * time.Millisecond), Node: wire.NodeID("n" + strconv.Itoa(w)),
			Type: EventType(n%uint64(numEventTypes) + 1), App: wire.AppID("a" + strconv.Itoa(i%7)),
			User: wire.UserID("u" + strconv.Itoa(i%13)), Note: strconv.Itoa(i),
			Seq: wire.UpdateSeq{Origin: wire.NodeID("m" + strconv.Itoa(i%3)), Counter: n}, Trace: n}
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

func TestWriterTracer(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	w.Emit(Event{Node: "h0", Type: EventCacheHit, App: "a"})
	w.Emit(Event{Node: "m1", Type: EventFrozen})
	out := buf.String()
	if !strings.Contains(out, "cache-hit") || !strings.Contains(out, "frozen") {
		t.Errorf("writer output = %q", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Errorf("want one line per event, got %q", out)
	}
}

func TestWriterTracerConcurrent(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&safeBuilder{b: &buf})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			w.Emit(Event{Type: EventQuerySent})
		}
	}()
	for i := 0; i < 100; i++ {
		w.Emit(Event{Type: EventCacheHit})
	}
	<-done
}

// safeBuilder makes strings.Builder usable from the Writer's serialized
// writes without racing the test's final read.
type safeBuilder struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}
