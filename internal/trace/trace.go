// Package trace records structured protocol events. Nodes emit events
// through a Tracer; the simulator installs a collecting tracer for
// experiments (message accounting, revocation-latency measurement) while
// production deployments default to the no-op tracer.
package trace

import (
	"fmt"
	"io"
	"iter"
	"strings"
	"sync"
	"time"

	"wanac/internal/wire"
)

// EventType classifies protocol events.
type EventType uint8

// Event types emitted by the protocol nodes.
const (
	// EventAccessAllowed: a host allowed an Invoke on a quorum round's
	// confirmations (a cache hit is EventCacheHit alone).
	EventAccessAllowed EventType = iota + 1
	// EventAccessDenied: a host rejected an Invoke.
	EventAccessDenied
	// EventAccessDefault: a host allowed via the high-availability rule
	// after R failed verification attempts (Figure 4).
	EventAccessDefault
	// EventCacheHit: a host allowed an Invoke from a fresh cached entry. It
	// is the hit's decision event; no access-allowed accompanies it.
	EventCacheHit
	// EventCacheExpired: a cached entry was discarded on lookup.
	EventCacheExpired
	// EventQuerySent: host sent a Query to a manager.
	EventQuerySent
	// EventQueryTimeout: a query round timed out without quorum.
	EventQueryTimeout
	// EventGrantCached: host cached a manager grant.
	EventGrantCached
	// EventRevokeApplied: host flushed a cached entry due to RevokeNotice.
	EventRevokeApplied
	// EventUpdateIssued: a manager accepted an AdminOp.
	EventUpdateIssued
	// EventUpdateApplied: a manager applied a peer's update.
	EventUpdateApplied
	// EventUpdateQuorum: the issuing manager observed update-quorum acks.
	EventUpdateQuorum
	// EventFrozen: a manager entered the freeze state (§3.3).
	EventFrozen
	// EventUnfrozen: a manager left the freeze state.
	EventUnfrozen
	// EventSynced: a recovering manager completed state sync.
	EventSynced
	// EventQueryServed: a manager answered a host Query. Appended after the
	// original set so existing numeric values stay stable.
	EventQueryServed
	// EventQueryShed: a manager's admission control rejected a Query with a
	// Busy reply instead of serving it.
	EventQueryShed
	// EventCheckBackoff: a host deferred a check round after a Busy reply
	// (or while inside an app's busy window).
	EventCheckBackoff
	// EventTeAdapted: a manager's adaptive-Te controller changed the
	// effective revocation bound; the note carries the new value.
	EventTeAdapted
	numEventTypes // one past the last defined type; keep last
)

// eventNames is indexed by EventType: String runs once per recorded event
// (flight ring, telemetry bridge), so it is an array load, not a map probe.
// trace_test.go fails on a defined type left without a name.
var eventNames = [numEventTypes]string{
	EventAccessAllowed: "access-allowed",
	EventAccessDenied:  "access-denied",
	EventAccessDefault: "access-default",
	EventCacheHit:      "cache-hit",
	EventCacheExpired:  "cache-expired",
	EventQuerySent:     "query-sent",
	EventQueryTimeout:  "query-timeout",
	EventGrantCached:   "grant-cached",
	EventRevokeApplied: "revoke-applied",
	EventUpdateIssued:  "update-issued",
	EventUpdateApplied: "update-applied",
	EventUpdateQuorum:  "update-quorum",
	EventFrozen:        "frozen",
	EventUnfrozen:      "unfrozen",
	EventSynced:        "synced",
	EventQueryServed:   "query-served",
	EventQueryShed:     "query-shed",
	EventCheckBackoff:  "check-backoff",
	EventTeAdapted:     "te-adapted",
}

// String returns the event's stable name.
func (t EventType) String() string {
	if t < numEventTypes && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("event-%d", uint8(t))
}

// Event is one protocol occurrence.
type Event struct {
	Time time.Time
	Node wire.NodeID
	Type EventType
	App  wire.AppID
	User wire.UserID
	// Seq identifies the update an update-issued/-applied/-quorum event
	// refers to, letting offline checkers (internal/harness) verify
	// per-origin application order and correlate quorum times with
	// revocations. Zero for event types that do not concern an update.
	Seq  wire.UpdateSeq
	Note string
	// Trace is the causal check identifier (the first query round's nonce,
	// carried on the wire since the telemetry PR) for events that occur
	// inside a check's lifecycle: query-sent/-timeout/-served, grant-cached,
	// and the final access decision. Zero when no check context exists
	// (cache sweeps, admin updates, freezes). The flight recorder uses it to
	// align drifting node clocks by matching query-sent/query-served pairs.
	Trace uint64
}

// String renders a single trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", e.Time.Format("15:04:05.000"), e.Node, e.Type)
	if e.App != "" {
		fmt.Fprintf(&b, " app=%s", e.App)
	}
	if e.User != "" {
		fmt.Fprintf(&b, " user=%s", e.User)
	}
	if e.Seq.Origin != "" {
		fmt.Fprintf(&b, " seq=%s/%d", e.Seq.Origin, e.Seq.Counter)
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x", e.Trace)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " %s", e.Note)
	}
	return b.String()
}

// Tracer receives protocol events.
type Tracer interface {
	Emit(e Event)
}

// Nop discards all events.
type Nop struct{}

var _ Tracer = Nop{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// chunkEvents is how many events one storage chunk of a Collector holds
// (64 KiB of 128-byte events).
const chunkEvents = 512

// Collector retains events in memory and counts them by type. It is safe
// for concurrent use (the live runtime emits from several goroutines).
//
// Events are stored in fixed-size chunks, so recording one never copies or
// re-zeroes the ones already held: a simulator run appends millions. With a
// Cap the same chunks form a ring — the oldest event is dropped by moving
// head, and a chunk emptied at the front is refilled at the back.
type Collector struct {
	mu     sync.Mutex
	chunks [][]Event   // retained events, oldest first; only the last may have room
	head   int         // events at the front of chunks[0] already dropped
	n      int         // retained events
	spare  []Event     // an emptied chunk awaiting reuse (bounded case)
	counts [1 << 8]int // emitted per EventType, retained or not
	// Cap bounds memory; once exceeded, older events are discarded but
	// counts keep accumulating. Zero means unbounded.
	Cap int
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector with the given retention cap
// (0 = unbounded).
func NewCollector(cap int) *Collector {
	return &Collector{Cap: cap}
}

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[e.Type]++
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		chunk := c.spare
		c.spare = nil
		if chunk == nil {
			chunk = make([]Event, 0, chunkEvents)
		}
		c.chunks = append(c.chunks, chunk)
		last++
	}
	c.chunks[last] = append(c.chunks[last], e)
	c.n++
	for c.Cap > 0 && c.n > c.Cap {
		c.head++
		c.n--
		if c.head == len(c.chunks[0]) {
			// Every event of the oldest chunk is dropped: release their
			// strings and keep the storage for the next chunk needed.
			c.spare = c.chunks[0][:0]
			clear(c.chunks[0])
			c.chunks = append(c.chunks[:0], c.chunks[1:]...)
			c.head = 0
		}
	}
}

// Count returns how many events of type t were emitted (including ones no
// longer retained).
func (c *Collector) Count(t EventType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[t]
}

// all yields the retained events, oldest first, in the chunks that hold them.
// The caller holds c.mu.
func (c *Collector) all(yield func(*Event) bool) {
	for i, chunk := range c.chunks {
		if i == 0 {
			chunk = chunk[c.head:]
		}
		for j := range chunk {
			if !yield(&chunk[j]) {
				return
			}
		}
	}
}

// All iterates over the retained events, oldest first, where they lie: no
// copy of the log is made, so a pass over a finished run costs no memory. The
// events are the collector's own storage — read them, do not write them — and
// a pointer stays good until the next Emit or Reset. All holds the
// collector's lock while the loop runs: the body must not call back into the
// collector.
func (c *Collector) All() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.all(yield)
	}
}

// Events returns a copy of the retained events, oldest first: one flat
// slice the caller owns. A pass that only reads the log ranges over All.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, c.n)
	for e := range c.all {
		out = append(out, *e)
	}
	return out
}

// Filter returns retained events matching type t, oldest first.
func (c *Collector) Filter(t EventType) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for e := range c.all {
		if e.Type == t {
			out = append(out, *e)
		}
	}
	return out
}

// Reset clears events and counts and releases the storage.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks, c.head, c.n, c.spare = nil, 0, 0, nil
	c.counts = [len(c.counts)]int{}
}

// Writer is a Tracer that streams each event as one line to an io.Writer
// (log files, stderr). Writes are serialized; write errors are dropped —
// tracing must never take the protocol down.
type Writer struct {
	mu sync.Mutex
	w  io.Writer
}

var _ Tracer = (*Writer)(nil)

// NewWriter returns a line-streaming tracer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Emit implements Tracer.
func (t *Writer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, e.String())
}
