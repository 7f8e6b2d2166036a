// Package trace records structured protocol events. Nodes emit events
// through a Tracer. The simulator installs a collecting tracer for
// experiments (message accounting, revocation-latency measurement); acnode
// counts events by type and tees them into the node journal and the process
// log (telemetry.InstrumentTracer over flight.Tee). A node given no tracer
// uses the no-op tracer and builds no events.
//
// A cache hit's event reaches only a chain that keeps it: the Collector, or
// acnode's process log when it logs at Debug. The journal keeps the hit as
// its decision record instead, and the telemetry bridge reads hits from the
// host's count, so Nop, flight.Tee with nothing after it that keeps hits and
// the bridge over either drop the event (Dropper), and a host builds none
// for them.
package trace

import (
	"fmt"
	"iter"
	"strconv"
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
// (flight journal, telemetry bridge), so it is an array load, not a map probe.
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

// Word is the word an event's note names: a decision's reason, a query's
// verdict, an update's op. Its String is the word as the note renders it.
type Word uint8

// Words the protocol nodes emit.
const (
	WordNone Word = iota
	WordQuorum
	WordRevoked
	WordUnreachable
	WordUnregistered
	WordResolveFailed
	WordGranted
	WordDenied
	WordFrozen
	WordUnknownApp
	WordForced
	WordAdd
	WordRevoke
	WordInvalidOp
	numWords // one past the last defined word; keep last
)

var wordNames = [numWords]string{
	WordQuorum:        "quorum",
	WordRevoked:       "revoked",
	WordUnreachable:   "unreachable",
	WordUnregistered:  "unregistered",
	WordResolveFailed: "resolve-failed",
	WordGranted:       "granted",
	WordDenied:        "denied",
	WordFrozen:        "frozen",
	WordUnknownApp:    "unknown-app",
	WordForced:        "forced",
	WordAdd:           "add",
	WordRevoke:        "revoke",
	WordInvalidOp:     "invalid",
}

// String returns the word, "" for WordNone.
func (w Word) String() string {
	if w < numWords {
		return wordNames[w]
	}
	return fmt.Sprintf("word-%d", uint8(w))
}

// OpWord is the word for an update op, rendered as op.String is.
func OpWord(op wire.Op) Word {
	switch op {
	case wire.OpAdd:
		return WordAdd
	case wire.OpRevoke:
		return WordRevoke
	}
	return WordInvalidOp
}

// Pair packs the two counts of a query-sent event (round, managers asked)
// into one Num.
func Pair(a, b int) int64 { return int64(a)<<32 | int64(uint32(b)) }

// Event is one protocol occurrence. Its detail — Word, Peer and Num — is
// typed, so emitting one copies fixed-size fields and formats nothing; Note
// renders it as text where text is read.
type Event struct {
	Time time.Time
	Node wire.NodeID
	Type EventType
	Word Word
	App  wire.AppID
	User wire.UserID
	// Seq identifies the update an update-issued/-applied/-quorum event
	// refers to, letting offline checkers (internal/harness) verify
	// per-origin application order and correlate quorum times with
	// revocations. Zero for event types that do not concern an update.
	Seq wire.UpdateSeq
	// Peer is the other node an event names: the querying host of a
	// query-served or -shed, the origin an update-applied came from.
	Peer wire.NodeID
	// Num is the event's one number: a duration for check-backoff,
	// query-shed and te-adapted, a Pair for query-sent, a count otherwise.
	// Update events carry none.
	Num int64
	// Trace is the causal check identifier (the first query round's nonce,
	// carried on the wire since the telemetry PR) for events that occur
	// inside a check's lifecycle: query-sent/-timeout/-served, grant-cached,
	// and the final access decision. Zero when no check context exists
	// (cache sweeps, admin updates, freezes). The flight recorder uses it to
	// align drifting node clocks by matching query-sent/query-served pairs.
	Trace uint64
}

// Note renders the event's detail as the text its type's note reads: "round=2
// managers=3", "host=h0 granted", "revoke from m1", "" for none.
func (e Event) Note() string { return Note(e.Type, e.Word, e.Peer, e.Num) }

// Note renders the detail of an event of type t; Event.Note and flight dumps
// read it. It is the one place an event's detail becomes text.
func Note(t EventType, w Word, peer wire.NodeID, num int64) string {
	itoa := func(n int64) string { return strconv.FormatInt(n, 10) }
	switch t {
	case EventQuerySent:
		return "round=" + itoa(num>>32) + " managers=" + itoa(int64(int32(num)))
	case EventQueryTimeout:
		return "round=" + itoa(num)
	case EventGrantCached:
		return "confirmations=" + itoa(num)
	case EventSynced:
		return "entries=" + itoa(num)
	case EventCheckBackoff:
		return "delay=" + time.Duration(num).String()
	case EventTeAdapted:
		return "te=" + time.Duration(num).String()
	case EventQueryShed:
		return "host=" + string(peer) + " retry=" + time.Duration(num).String()
	case EventQueryServed:
		return "host=" + string(peer) + " " + w.String()
	case EventAccessDefault:
		if w == WordNone {
			return "attempts=" + itoa(num)
		}
	case EventUpdateApplied:
		if peer != "" {
			return w.String() + " from " + string(peer)
		}
	}
	return w.String()
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
	if note := e.Note(); note != "" {
		fmt.Fprintf(&b, " %s", note)
	}
	return b.String()
}

// Tracer receives protocol events.
type Tracer interface {
	Emit(e Event)
}

// Dropper is implemented by a tracer that discards some event types unseen.
// A node asks once, when it is built, so that it builds no event its tracer
// would drop.
type Dropper interface {
	Drops(t EventType) bool
}

// Drops reports whether tr discards every event of type t: what tr says if
// it is a Dropper, false otherwise.
func Drops(tr Tracer, t EventType) bool {
	d, ok := tr.(Dropper)
	return ok && d.Drops(t)
}

// Nop discards all events.
type Nop struct{}

var _ Tracer = Nop{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Drops implements Dropper: Nop drops every type.
func (Nop) Drops(EventType) bool { return true }

// chunkEvents is how many events one storage chunk of a Collector holds
// (64 KiB of 64-byte records).
const chunkEvents = 1024

// record is how a Collector keeps an Event, in 56 bytes of its 136: the time
// as an epoch offset; Node, App, Seq.Origin and Peer as name indices, 0 for
// ""; Num in Seq.Counter's bytes when num is set (no update event carries a
// number).
type record struct {
	t                       int64
	user                    wire.UserID
	trace, counter          uint64
	node, app, origin, peer uint16
	typ                     EventType
	word                    Word
	num                     bool
}

// Collector retains every event in memory and counts them by type. It is
// safe for concurrent use (the live runtime emits from several goroutines).
//
// Events are kept as packed records in fixed-size chunks, so recording one
// never copies the millions a run holds. Node, App, Seq.Origin and Peer share
// one Names table; an event naming one the table cannot hold, or carrying
// both a Num and a Seq.Counter, is kept aside.
type Collector struct {
	mu     sync.Mutex
	chunks [][]record  // oldest first; only the last may have room
	n      int         // events held
	counts [1 << 8]int // emitted per EventType
	epoch  Epoch       // what record.t counts from
	names  Names
	spill  map[int]Event // events, by position, with a name the table lacks; nil until one is
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[e.Type]++
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		c.chunks = append(c.chunks, make([]record, 0, chunkEvents))
		last++
	}
	r := record{t: c.epoch.Offset(e.Time), user: e.User, trace: e.Trace, counter: e.Seq.Counter, typ: e.Type, word: e.Word}
	var node, app, origin, peer bool
	r.node, node = c.names.Index(string(e.Node))
	r.app, app = c.names.Index(string(e.App))
	r.origin, origin = c.names.Index(string(e.Seq.Origin))
	r.peer, peer = c.names.Index(string(e.Peer))
	if e.Num != 0 {
		r.counter, r.num = uint64(e.Num), true
	}
	if !node || !app || !origin || !peer || r.num && e.Seq.Counter != 0 {
		if c.spill == nil {
			c.spill = make(map[int]Event)
		}
		c.spill[c.n] = e
	}
	c.chunks[last] = append(c.chunks[last], r)
	c.n++
}

// Count returns how many events of type t were emitted.
func (c *Collector) Count(t EventType) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[t]
}

// all yields the events, oldest first, each unpacked into one reused Event.
// The caller holds c.mu.
func (c *Collector) all(yield func(*Event) bool) {
	var e Event
	for k, chunk := range c.chunks {
		for j, r := range chunk {
			e = Event{Time: c.epoch.Time(r.t), Node: wire.NodeID(c.names.Name(r.node)), Type: r.typ, Word: r.word,
				App: wire.AppID(c.names.Name(r.app)), User: r.user, Peer: wire.NodeID(c.names.Name(r.peer)),
				Trace: r.trace, Seq: wire.UpdateSeq{Origin: wire.NodeID(c.names.Name(r.origin)), Counter: r.counter}}
			if r.num {
				e.Num, e.Seq.Counter = int64(r.counter), 0
			}
			if c.spill != nil {
				if spilled, ok := c.spill[k*chunkEvents+j]; ok {
					e = spilled
				}
			}
			if !yield(&e) {
				return
			}
		}
	}
}

// All iterates over the events, oldest first, without copying the log: a
// pass over a finished run costs no memory. Each event is unpacked into one
// Event that All reuses, so the pointer is good only until the loop body
// returns; a pass that keeps an event copies it. Times come back as instants
// (Epoch): in the Location of the first non-zero time emitted, without a
// monotonic reading, and clamped beyond ±292 years of it; a zero time comes
// back as time.Time{}. All holds the collector's lock while the loop runs:
// the body must not call back into the collector.
func (c *Collector) All() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.all(yield)
	}
}

// Events returns a copy of the events, oldest first, times as All gives them
// (compare with Equal): one flat slice the caller owns. A pass that only
// reads the log ranges over All.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, c.n)
	for e := range c.all {
		out = append(out, *e)
	}
	return out
}

// Reset clears events, counts and names and releases the storage.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks, c.n, c.epoch, c.names, c.spill = nil, 0, Epoch{}, Names{}, nil
	c.counts = [len(c.counts)]int{}
}
