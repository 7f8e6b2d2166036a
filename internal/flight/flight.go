// Package flight implements the node journal: an always-on, bounded,
// lock-cheap record of one node's recent history. It keeps protocol events
// (internal/trace), transport state changes (internal/netcore), partition and
// clock injections (internal/simnet) and quorum decisions beside the
// provenance of every access decision a host makes and every query verdict a
// manager serves, with the evidence behind it — the cache entry and its
// granting managers, the quorum round and responding manager set, or the
// fallback rule and the attempts that exhausted R (Figure 4).
//
// A journal keeps two windows under one lock and one sequence: the protocol
// window and the decisions window, so protocol chatter cannot evict a
// decision. When something goes wrong (an oracle violation in the harness, or
// an operator request on a live node) the journal is dumped as versioned
// JSONL (dump.go). acaudit explains decisions from it (explain.go) and, with
// -timeline, merges dumps from several nodes, aligns their — possibly
// drifting — clocks and renders a causal timeline (align.go, timeline.go).
//
// Decision records are emitted at the same call sites as the node counts
// that HostStats and the telemetry counters read, so the views cannot drift
// (pinned by exactness tests in internal/core).
//
// The journal is designed to ride hot paths for free: recording is one
// mutex acquisition and one write of a slot, no heap allocation (all string
// fields are header copies of strings that already exist) beyond the few
// that grow a young window to its capacity. The end-to-end cached-check
// allocation budget (0 allocs/op, see alloc_test.go at the repo root) holds
// with a journal attached.
package flight

import (
	"encoding/json"
	"io"
	"iter"
	"math"
	"sync"
	"time"
	"unsafe"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

// Kind groups records into the event categories the journal captures.
type Kind uint8

const (
	// KindProtocol: a trace.Event from a host or manager.
	KindProtocol Kind = iota + 1
	// KindTransport: a netcore peer health transition (connecting/up/backoff).
	KindTransport
	// KindNet: a network injection — link cut/restore, partition, heal,
	// crash, recover, clock-rate — observed on the simulated network, or a
	// scenario's fault-window annotation (internal/scenario).
	KindNet
	// KindQuorum: a quorum decision (update-quorum on a manager, quorum
	// grant on a host).
	KindQuorum
	// KindMark: an out-of-band marker added at dump time (oracle
	// violations, operator notes).
	KindMark
	// KindDecision: a host resolved a check; kept in the decisions window.
	KindDecision
	// KindResponse: a manager answered (or shed) a host query; kept in the
	// decisions window.
	KindResponse
)

var kindNames = [...]string{
	KindProtocol:  "protocol",
	KindTransport: "transport",
	KindNet:       "net",
	KindQuorum:    "quorum",
	KindMark:      "mark",
	KindDecision:  "decision",
	KindResponse:  "response",
}

// String returns the kind's stable dump name.
func (k Kind) String() string { return name(kindNames[:], k, "kind") }

// decided reports whether records of kind k go in the decisions window.
func (k Kind) decided() bool { return k == KindDecision || k == KindResponse }

// MarshalText renders the kind as its stable name (dump readability beats a
// bare number; this only runs at dump time, never on the record path).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText accepts the stable names written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error { return unname(kindNames[:], b, k, "kind") }

// Record is one journal entry. Field types are deliberately plain (strings,
// ints) so a dump round-trips through JSON without importing the wire
// package; recording one costs no allocation because every string is a
// header copy.
//
// The fields up to Note describe every kind. The rest is the evidence of a
// decision or response, populated per reason: cache hits carry Granters and
// the entry's Expiry; quorum allows carry Confirmations, the granting
// Managers set, and the granted Expire; quorum denies carry Denials against
// Set (and how many were Queried); default-rule fallbacks carry the Attempts
// that exhausted R. Manager responses carry the querying Peer and the seq
// (Origin/Counter) of the last ACL operation the verdict rests on. A decision
// or response keeps no Type or Note, and a record of any other kind keeps no
// evidence.
type Record struct {
	// Seq is the node-local sequence number, assigned by the journal across
	// both windows. It keeps same-timestamp records ordered and reveals
	// overwrite gaps (a dump whose first record has Seq > 0 lost history).
	Seq uint64 `json:"seq"`
	// T is the node's local clock at record time — subject to drift; the
	// analyzer maps it onto a common frame (see Align).
	T time.Time `json:"t"`
	// Node identifies the recording node. Filled by the journal.
	Node string `json:"node"`
	Kind Kind   `json:"kind"`
	// Type is the stable event name: a trace.EventType name for protocol
	// and quorum records, a netcore state name for transport records, an
	// injection name (link-cut, partition, heal, crash, recover,
	// clock-rate, annotation) for net records.
	Type string `json:"type,omitempty"`
	// Trace is the causal check ID (trace.Event.Trace) where one exists.
	Trace uint64 `json:"trace,omitempty"`
	App   string `json:"app,omitempty"`
	User  string `json:"user,omitempty"`
	Right string `json:"right,omitempty"`
	// Origin/Counter carry wire.UpdateSeq for update events, and the seq of
	// the last ACL operation a manager's verdict rests on.
	Origin  string `json:"origin,omitempty"`
	Counter uint64 `json:"counter,omitempty"`
	// Peer names the other party: the remote peer for transport records,
	// the far endpoint for link records, the querying host of a response.
	Peer string `json:"peer,omitempty"`
	Note string `json:"note,omitempty"`

	Reason  Reason `json:"reason,omitzero"`
	Allowed bool   `json:"allowed,omitempty"`
	// Set is a byte (a host takes at most 64 managers), so that a decision
	// slot stays within its budget.
	Set           uint8         `json:"set,omitempty"`           // M, the size of Managers(A) at the decision
	Attempts      int           `json:"attempts,omitempty"`      // query rounds consumed (R budget)
	Queried       int           `json:"queried,omitempty"`       // managers queried in the final round
	Quorum        int           `json:"quorum,omitempty"`        // the policy's check quorum C
	Confirmations int           `json:"confirmations,omitempty"` // distinct granting managers
	Denials       int           `json:"denials,omitempty"`       // distinct managers denying in the final round
	Granters      int           `json:"granters,omitempty"`      // cache hit: managers vouching for the entry
	Managers      string        `json:"managers,omitempty"`      // quorum allow: sorted granting set, comma-joined
	Expire        time.Duration `json:"expire_ns,omitempty"`     // granted te (quorum allow / manager grant)
	Expiry        time.Time     `json:"expiry,omitzero"`         // cache-entry / fresh-grant limit, node-local clock
	Backoffs      int           `json:"backoffs,omitempty"`      // busy/backoff deferrals during the check
	Frozen        bool          `json:"frozen,omitempty"`        // a manager reported the freeze state (§3.3)
}

// Sink receives every decision and response a Recorder accepts, in Seq
// order. Sinks run under the recorder lock: they must not block or call back
// in.
type Sink interface {
	Accept(Record)
}

// Recorder is a node's journal. All methods are safe for concurrent use;
// recording never blocks beyond a short mutex hold and, once a window has
// grown to its capacity, never allocates, so it is cheap enough to leave on
// in production — that is the point of a flight recorder. Each window's
// memory follows its use (ring).
type Recorder struct {
	node string
	now  func() time.Time

	mu        sync.Mutex
	seq       uint64 // records ever accepted: the next record's Seq
	decisions uint64 // accepted records with Kind == KindDecision
	protocol  ring[protocolSlot]
	decided   ring[decisionSlot]
	epoch     trace.Epoch       // T and Expiry offsets count from the first stamped T
	types     []string          // the Types of protocol-window records not built from an event
	typeIndex map[string]uint16 // types[i-1] → i
	sink      Sink
}

// protocolSlot is a protocol-window record as the ring keeps it: Node is the
// recorder's and T an epoch offset. An event's slot keeps its detail (event
// is its type, which names the record's Type): Peer in peer, Word in word
// and, when num is set, Num in counter's bytes; its Note is rendered from
// them on the way out unless note holds it already. Any other record's Type
// is types[typ-1].
type protocolSlot struct {
	t                             int64
	seq, trace, counter           uint64
	app, user, origin, peer, note string
	typ                           uint16
	kind                          Kind
	event                         trace.EventType
	word                          trace.Word
	num                           bool
}

// decisionSlot is a decisions-window record as the ring keeps it: the times
// are epoch offsets (trace.Never: a zero Expiry), and the counts are
// narrowed, saturating rather than wrapping, so a count out of its domain
// stays out of it.
type decisionSlot struct {
	t, expiry                                              int64
	seq, trace, counter                                    uint64
	expire                                                 time.Duration
	app, user, right, managers, peer, origin               string
	attempts, backoffs                                     int16
	kind                                                   Kind
	reason                                                 Reason
	allowed, frozen                                        bool
	set, queried, quorum, confirmations, denials, granters uint8
}

// ProtocolSlotBytes and DecisionSlotBytes are what one retained record costs
// its window, its strings aside.
const (
	ProtocolSlotBytes = int(unsafe.Sizeof(protocolSlot{}))
	DecisionSlotBytes = int(unsafe.Sizeof(decisionSlot{}))
)

func sat8(n int) uint8  { return uint8(min(max(n, 0), math.MaxUint8)) }
func sat16(n int) int16 { return int16(min(max(n, math.MinInt16), math.MaxInt16)) }

// NewRecorder returns a journal for the named node whose windows each hold
// the last size records (at least one). now supplies the node's local clock;
// nil means time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, protocol: newRing[protocolSlot](size), decided: newRing[decisionSlot](size)}
}

// Node returns the recorder's node name.
func (r *Recorder) Node() string { return r.node }

// SetSink installs a sink receiving every accepted decision and response
// (nil disables). Install before traffic flows; the sink sees only records
// accepted after the call.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// stamp returns t as an epoch offset, or the local clock's reading if t is
// zero. Stamping under the lock keeps Seq order and timestamp order in
// agreement for records the recorder stamps itself. Must be called with r.mu
// held.
func (r *Recorder) stamp(t time.Time) int64 {
	if t.IsZero() {
		t = r.now()
	}
	return r.epoch.Offset(t)
}

// commitProtocol stamps and accepts the record built in s. Must be called
// with r.mu held.
func (r *Recorder) commitProtocol(s *protocolSlot, t time.Time) {
	s.t, s.seq = r.stamp(t), r.seq
	r.seq++
	r.protocol.commit()
}

// commitDecision stamps the record built in s with its times — t, or the
// clock if t is zero, then expiry — accepts it, counts it, and feeds the
// sink. Must be called with r.mu held.
func (r *Recorder) commitDecision(s *decisionSlot, t, expiry time.Time) {
	s.t, s.expiry, s.seq = r.stamp(t), r.epoch.Offset(expiry), r.seq
	r.seq++
	r.decided.commit()
	if s.kind == KindDecision {
		r.decisions++
	}
	if r.sink != nil {
		r.sink.Accept(r.unpackDecision(s))
	}
}

// Record appends rec, assigning Seq and Node, and stamping the local clock
// if rec.T is zero; a decision or response goes in the decisions window, any
// other kind in the protocol window. The oldest record of the window is
// overwritten once it is full, in place, so steady-state recording allocates
// nothing.
//
// A record's Type is kept as an index into the journal's table of the types
// it was handed; a type beyond the table's 65,535 reads back in front of the
// record's Note.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	if rec.Kind.decided() {
		s := r.decided.slot()
		s.kind, s.trace = rec.Kind, rec.Trace
		s.app, s.user, s.right = rec.App, rec.User, rec.Right
		s.reason, s.allowed, s.set = rec.Reason, rec.Allowed, rec.Set
		s.attempts, s.queried, s.quorum = sat16(rec.Attempts), sat8(rec.Queried), sat8(rec.Quorum)
		s.confirmations, s.denials, s.granters = sat8(rec.Confirmations), sat8(rec.Denials), sat8(rec.Granters)
		s.managers, s.expire, s.backoffs, s.frozen = rec.Managers, rec.Expire, sat16(rec.Backoffs), rec.Frozen
		s.peer, s.origin, s.counter = rec.Peer, rec.Origin, rec.Counter
		r.commitDecision(s, rec.T, rec.Expiry)
	} else {
		s := r.protocol.slot()
		s.kind, s.trace, s.app, s.user = rec.Kind, rec.Trace, rec.App, rec.User
		s.origin, s.counter, s.peer, s.note = rec.Origin, rec.Counter, rec.Peer, rec.Note
		s.typ, s.event = r.typeOf(rec.Type), 0
		if s.typ == 0 && rec.Type != "" {
			s.note = rec.Type + " " + rec.Note
		}
		r.commitProtocol(s, rec.T)
	}
	r.mu.Unlock()
}

// typeOf returns typ's index in the type table, adding it if there is room;
// 0 for "" or a full table. Must be called with r.mu held.
func (r *Recorder) typeOf(typ string) uint16 {
	if typ == "" {
		return 0
	}
	if i, ok := r.typeIndex[typ]; ok {
		return i
	}
	if len(r.types) == math.MaxUint16 {
		return 0
	}
	if r.typeIndex == nil {
		r.typeIndex = make(map[string]uint16)
	}
	r.types = append(r.types, typ)
	r.typeIndex[typ] = uint16(len(r.types))
	return uint16(len(r.types))
}

// RecordEvent records a protocol trace event, classifying quorum decisions
// (manager update-quorum, host quorum allow) under KindQuorum. The record
// is built in its slot; its note is rendered only when the journal is read.
func (r *Recorder) RecordEvent(e trace.Event) {
	r.mu.Lock()
	s := r.protocol.slot()
	s.kind, s.typ, s.event, s.word, s.trace = eventKind(e.Type), 0, e.Type, e.Word, e.Trace
	s.app, s.user, s.origin, s.counter = string(e.App), string(e.User), string(e.Seq.Origin), e.Seq.Counter
	s.peer, s.note, s.num = string(e.Peer), "", e.Num != 0
	if s.num {
		if e.Seq.Counter == 0 {
			s.counter = uint64(e.Num)
		} else { // no room for both: keep the counter and the note as text
			s.note, s.num = e.Note(), false
		}
	}
	r.commitProtocol(s, e.Time)
	r.mu.Unlock()
}

// RecordCacheHit appends the decision record of a cache hit — the one
// record on the per-check hot path — built in its slot rather than
// constructed by the caller and copied in: t is the decision time, granters
// and expiry the cached entry's evidence.
func (r *Recorder) RecordCacheHit(t time.Time, trace uint64, app, user, right string, granters int, expiry time.Time) {
	r.mu.Lock()
	s := r.decided.slot()
	*s = decisionSlot{}
	s.kind, s.trace = KindDecision, trace
	s.app, s.user, s.right = app, user, right
	s.reason, s.allowed, s.granters = ReasonCacheHit, true, sat8(granters)
	r.commitDecision(s, t, expiry)
	r.mu.Unlock()
}

// unpackProtocol rebuilds a protocol-window record from its slot. Must be
// called with r.mu held.
func (r *Recorder) unpackProtocol(s *protocolSlot) Record {
	rec := Record{Seq: s.seq, T: r.epoch.Time(s.t), Node: r.node, Kind: s.kind, Trace: s.trace,
		App: s.app, User: s.user, Origin: s.origin, Counter: s.counter, Peer: s.peer, Note: s.note}
	switch {
	case s.event != 0:
		rec.Type, rec.Peer = s.event.String(), ""
		if rec.Note == "" {
			var num int64
			if s.num {
				num, rec.Counter = int64(s.counter), 0
			}
			rec.Note = trace.Note(s.event, s.word, wire.NodeID(s.peer), num)
		}
	case s.typ != 0:
		rec.Type = r.types[s.typ-1]
	}
	return rec
}

// unpackDecision rebuilds a decisions-window record from its slot. Must be
// called with r.mu held.
func (r *Recorder) unpackDecision(s *decisionSlot) Record {
	return Record{Seq: s.seq, T: r.epoch.Time(s.t), Node: r.node, Kind: s.kind, Trace: s.trace, App: s.app, User: s.user,
		Right: s.right, Reason: s.reason, Allowed: s.allowed, Set: s.set, Attempts: int(s.attempts), Queried: int(s.queried),
		Quorum: int(s.quorum), Confirmations: int(s.confirmations), Denials: int(s.denials), Granters: int(s.granters),
		Managers: s.managers, Expire: s.expire, Expiry: r.epoch.Time(s.expiry), Backoffs: int(s.backoffs), Frozen: s.frozen,
		Peer: s.peer, Origin: s.origin, Counter: s.counter}
}

// each yields the retained records of both windows, merged in Seq order,
// each unpacked into one Record that each reuses. Must be called with r.mu
// held.
func (r *Recorder) each(yield func(*Record) bool) {
	var rec Record
	p, pEnd := r.protocol.oldest(), r.protocol.next
	d, dEnd := r.decided.oldest(), r.decided.next
	for p < pEnd || d < dEnd {
		if d == dEnd || p < pEnd && r.protocol.at(p).seq < r.decided.at(d).seq {
			rec = r.unpackProtocol(r.protocol.at(p))
			p++
		} else {
			rec = r.unpackDecision(r.decided.at(d))
			d++
		}
		if !yield(&rec) {
			return
		}
	}
}

// retained returns how many records the windows hold. Must be called with
// r.mu held.
func (r *Recorder) retained() uint64 { return r.protocol.retained() + r.decided.retained() }

// EventRecord is the record RecordEvent keeps for e, but with e's Node and no
// Seq yet: how a reader of a trace log builds a node's dump.
func EventRecord(e *trace.Event) Record {
	return Record{T: e.Time, Node: string(e.Node), Kind: eventKind(e.Type), Type: e.Type.String(), Trace: e.Trace,
		App: string(e.App), User: string(e.User), Origin: string(e.Seq.Origin), Counter: e.Seq.Counter, Note: e.Note()}
}

// eventKind classifies an event's record: quorum decisions (manager
// update-quorum, host quorum allow) under KindQuorum, the rest KindProtocol.
func eventKind(t trace.EventType) Kind {
	if t == trace.EventUpdateQuorum || t == trace.EventAccessAllowed {
		return KindQuorum
	}
	return KindProtocol
}

// Total returns how many records were ever accepted (≥ retained).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Decisions returns how many decision-kind records were ever accepted.
func (r *Recorder) Decisions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decisions
}

// Dropped returns how many accepted records the windows have since
// overwritten.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - r.retained()
}

// All iterates over the retained records in Seq order, unpacking each from
// its slot into one Record: no copy of the windows is made, so a pass over a
// finished run costs no memory, and a yielded pointer is good only until the
// next iteration. All holds the recorder's lock while the loop runs: the
// body must not call back into the recorder.
func (r *Recorder) All() iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.each(yield)
	}
}

// Snapshot returns a copy of the retained records in Seq order.
func (r *Recorder) Snapshot() []Record { return r.Dump().Records }

// teeTracer is Tee's tracer; a nil next ends the chain (no call, no event
// copy).
type teeTracer struct {
	rec  *Recorder
	next trace.Tracer
}

// Tee returns a trace.Tracer that records every event but a cache hit into
// rec and then forwards it to next (which may be nil to stop the chain).
// This is how a live node gets flight recording without the core packages
// importing flight.
//
// A cache hit is forwarded but not recorded: the protocol window keeps
// protocol history — queries, grants, revocations, quorums — which a host
// serving millions of hits a second would otherwise turn over in
// milliseconds. The hit's record is its decision record (RecordCacheHit),
// which carries the hit's trace ID; timelines show it as the hit.
func Tee(rec *Recorder, next trace.Tracer) trace.Tracer {
	t := teeTracer{rec: rec}
	if _, nop := next.(trace.Nop); !nop {
		t.next = next
	}
	return t
}

// Emit implements trace.Tracer.
func (t teeTracer) Emit(e trace.Event) {
	if e.Type != trace.EventCacheHit {
		t.rec.RecordEvent(e)
	}
	if t.next != nil {
		t.next.Emit(e)
	}
}

// Writer is a Sink streaming each record as one JSON line (the
// `acnode -audit.jsonl` stream). Encode errors are counted, not raised:
// recording must never take the protocol down.
type Writer struct {
	mu   sync.Mutex
	enc  *json.Encoder
	errs int
}

// NewWriter returns a line-streaming sink. The caller owns w's lifecycle.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Accept implements Sink.
func (w *Writer) Accept(rec Record) {
	w.mu.Lock()
	if err := w.enc.Encode(rec); err != nil {
		w.errs++
	}
	w.mu.Unlock()
}

// Errors returns how many records failed to encode.
func (w *Writer) Errors() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.errs
}
