package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
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
