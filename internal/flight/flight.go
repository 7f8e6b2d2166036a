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
// decision. They exist only where a dump is made: a journal no one dumps,
// whose sink judges each record as written, has windows of size 0 (ring).
// When something goes wrong (an oracle violation in the harness, or an
// operator request on a live node) the journal is dumped as versioned JSONL
// (dump.go). acaudit explains decisions from it (explain.go) and, with
// -timeline, merges dumps from several nodes, aligns their — possibly
// drifting — clocks and renders a causal timeline (align.go, timeline.go).
//
// Decision records are emitted at the same call sites as the node counts
// that HostStats and the telemetry counters read, so the views cannot drift
// (pinned by exactness tests in internal/core).
//
// The journal is designed to ride hot paths for free: recording is one
// mutex acquisition and one write of a slot, no heap allocation (a slot
// keeps the user id as a header copy and every other name as an index into
// the journal's name table) beyond the few that grow a young window to its
// capacity, add a new name to the table or tidy it. The end-to-end
// cached-check allocation budget (0 allocs/op, see alloc_test.go at the repo
// root) holds with a journal attached.
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
// package.
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
// in. The record is lent for the call: it is the recorder's one unpacked
// record, which the next record overwrites, so a sink copies what it keeps.
type Sink interface {
	Accept(*Record)
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
	epoch     trace.Epoch // T and Expiry offsets count from the first stamped T
	names     trace.Names // the names the slots index; see tidy
	refused   int         // names the table refused since tidy last ran
	tidyAt    int         // tidy runs once the table's names and refused reach it
	hitApp    memo        // the last cache hit's app
	hitRight  rightMemo   // the last cache hit's right
	sink      Sink
	lent      Record // the record the sink is lent
}

// memo is an app and the index of its name (appIndex).
type memo struct {
	name string
	i    uint16
}

// rightMemo is a right and the index of its name (rightIndex); i is 0 until
// a hit sets it, since no right's name is "".
type rightMemo struct {
	right wire.Right
	i     uint16
}

// minTidy is how many names the table takes before its first tidy, and at
// least how many between two.
const minTidy = 64

// recordNames are a record's names other than its user. A record naming one
// a full name table cannot hold (trace.Names) keeps them beside its slot, in
// its window's spill (ring.keep), until the slot is overwritten.
type recordNames struct{ typ, app, right, managers, peer, origin string }

// protocolSlot is a protocol-window record as the ring keeps it: Node is the
// recorder's, T an epoch offset, and the names but User indices into the
// journal's name table (in the window's spill if spilled). An event's slot
// keeps its detail (event is its type, which names the record's Type): Peer
// in peer, Word in word and, when num is set, Num in counter's bytes; its
// Note is rendered from them on the way out unless note holds it already.
type protocolSlot struct {
	t                      int64
	seq, trace, counter    uint64
	user, note             string
	typ, app, origin, peer uint16
	kind                   Kind
	event                  trace.EventType
	word                   trace.Word
	num, spilled           bool
}

// decisionSlot is a decisions-window record as the ring keeps it: the times
// are epoch offsets (trace.Never: a zero Expiry), the names but User indices
// into the journal's name table (in the window's spill if the spilled flag
// is set), Allowed and Frozen flags, and the counts narrowed, saturating
// rather than wrapping, so a count out of its domain stays out of it.
type decisionSlot struct {
	t, expiry                                              int64
	seq, trace, counter                                    uint64
	expire                                                 time.Duration
	user                                                   string
	app, right, managers, peer, origin                     uint16
	attempts, backoffs                                     int16
	kind                                                   Kind
	reason                                                 Reason
	flags                                                  uint8
	set, queried, quorum, confirmations, denials, granters uint8
}

// The flags of a decision slot: a byte for three bools keeps the slot at 88
// bytes, not 96.
const (
	flagAllowed uint8 = 1 << iota
	flagFrozen
	flagSpilled
)

// flag returns f if b, else 0.
func flag(b bool, f uint8) uint8 {
	if b {
		return f
	}
	return 0
}

// ProtocolSlotBytes and DecisionSlotBytes are what one retained record costs
// its window, its user id, its note and the name table aside.
const (
	ProtocolSlotBytes = int(unsafe.Sizeof(protocolSlot{}))
	DecisionSlotBytes = int(unsafe.Sizeof(decisionSlot{}))
)

func sat8(n int) uint8  { return uint8(min(max(n, 0), math.MaxUint8)) }
func sat16(n int) int16 { return int16(min(max(n, math.MinInt16), math.MaxInt16)) }

// NewRecorder returns a journal for the named node whose windows each hold
// the last size records; of size 0 it holds none, and still stamps,
// sequences and counts each record and feeds its sink. now supplies the
// node's local clock; nil means time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, protocol: newRing[protocolSlot](size), decided: newRing[decisionSlot](size),
		tidyAt: minTidy}
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

// index returns s as its index in the name table, clearing *fits if the
// table cannot hold s. Must be called with r.mu held.
func (r *Recorder) index(s string, fits *bool) uint16 {
	i, ok := r.names.Index(s)
	if !ok {
		r.refused++
		*fits = false
	}
	return i
}

// appIndex and rightIndex are index for a cache hit's app and right,
// through the memos of the last hit's: a host's hits repeat an app and a
// right, so a hit seldom hashes a name. m is &r.hitApp, passed in because
// the compare then inlines; so does a memo's miss being a call of its own.
// Must be called with r.mu held.
func (r *Recorder) appIndex(m *memo, app string, fits *bool) uint16 {
	if app == m.name {
		return m.i
	}
	return r.rememberApp(m, app, fits)
}

func (r *Recorder) rightIndex(right wire.Right, fits *bool) uint16 {
	if right == r.hitRight.right && r.hitRight.i != 0 {
		return r.hitRight.i
	}
	return r.rememberRight(right, fits)
}

// rememberApp and rememberRight are the memos' misses: each looks its name up
// and sets its memo if the table holds it. Not inlined: inlined, each would
// take its caller over the inlining budget. Must be called with r.mu held.
//
//go:noinline
func (r *Recorder) rememberApp(m *memo, app string, fits *bool) uint16 {
	i := r.index(app, fits)
	if i != 0 {
		*m = memo{app, i}
	}
	return i
}

//go:noinline
func (r *Recorder) rememberRight(right wire.Right, fits *bool) uint16 {
	i := r.index(right.String(), fits)
	if i != 0 {
		r.hitRight = rightMemo{right, i}
	}
	return i
}

// untidy reports whether the name table is due a tidy. Must be called with
// r.mu held.
func (r *Recorder) untidy() bool { return r.names.Len()+r.refused >= r.tidyAt }

// tidy keeps in the name table only the names a retained record names,
// under new indices. It runs between records once the table has taken (or
// refused) as many names since it last ran as it then kept, and at least
// minTidy (untidy). So a node naming a new peer per record — a manager its
// querying hosts, a host its granting sets — keeps at most twice the names
// its windows name, plus minTidy, where a table only adding names would keep
// every name it was ever handed; and a tidy's cost, a pass over the
// windows, is spread over the names that brought it on. Must be called with
// r.mu held.
func (r *Recorder) tidy() {
	old := r.names
	r.names = trace.Names{}
	renamed := make([]uint16, old.Len()+1)
	rename := func(i *uint16) {
		if *i != 0 {
			if renamed[*i] == 0 {
				renamed[*i], _ = r.names.Index(old.Name(*i))
			}
			*i = renamed[*i]
		}
	}
	r.protocol.each(func(s *protocolSlot) {
		rename(&s.typ)
		rename(&s.app)
		rename(&s.origin)
		rename(&s.peer)
	})
	r.decided.each(func(s *decisionSlot) {
		rename(&s.app)
		rename(&s.right)
		rename(&s.managers)
		rename(&s.peer)
		rename(&s.origin)
	})
	r.hitApp, r.hitRight = memo{}, rightMemo{}
	r.refused, r.tidyAt = 0, r.names.Len()+max(r.names.Len(), minTidy)
}

// commitProtocol stamps and accepts the record built in s. Must be called
// with r.mu held.
func (r *Recorder) commitProtocol(s *protocolSlot, t time.Time) {
	s.t, s.seq = r.stamp(t), r.seq
	r.seq++
	r.protocol.commit(s.spilled)
	if r.untidy() {
		r.tidy()
	}
}

// commitDecision accepts the record built and stamped in s, counts it, and
// feeds the sink. Must be called with r.mu held.
func (r *Recorder) commitDecision(s *decisionSlot) {
	s.seq = r.seq
	r.seq++
	r.decided.commit(s.flags&flagSpilled != 0)
	if s.kind == KindDecision {
		r.decisions++
	}
	if r.sink != nil {
		r.unpackDecision(r.decided.next-1, &r.lent)
		r.sink.Accept(&r.lent)
	}
	if r.untidy() {
		r.tidy()
	}
}

// Record appends rec, assigning Seq and Node, and stamping the local clock
// if rec.T is zero; a decision or response goes in the decisions window, any
// other kind in the protocol window. The oldest record of the window is
// overwritten once it is full, in place, so steady-state recording allocates
// nothing.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	fits := true
	if rec.Kind.decided() {
		s := r.decided.slot()
		s.kind, s.trace, s.user = rec.Kind, rec.Trace, rec.User
		s.app, s.right = r.index(rec.App, &fits), r.index(rec.Right, &fits)
		s.managers, s.peer = r.index(rec.Managers, &fits), r.index(rec.Peer, &fits)
		s.origin, s.counter = r.index(rec.Origin, &fits), rec.Counter
		s.reason, s.flags, s.set = rec.Reason, flag(rec.Allowed, flagAllowed)|flag(rec.Frozen, flagFrozen), rec.Set
		s.attempts, s.queried, s.quorum = sat16(rec.Attempts), sat8(rec.Queried), sat8(rec.Quorum)
		s.confirmations, s.denials, s.granters = sat8(rec.Confirmations), sat8(rec.Denials), sat8(rec.Granters)
		s.expire, s.backoffs = rec.Expire, sat16(rec.Backoffs)
		if !fits {
			s.flags |= flagSpilled
			r.decided.keep(recordNames{app: rec.App, right: rec.Right, managers: rec.Managers, peer: rec.Peer, origin: rec.Origin})
		}
		s.t = r.stamp(rec.T)
		s.expiry = r.epoch.Offset(rec.Expiry)
		r.commitDecision(s)
	} else {
		s := r.protocol.slot()
		s.kind, s.trace, s.user, s.counter, s.note, s.event = rec.Kind, rec.Trace, rec.User, rec.Counter, rec.Note, 0
		s.typ, s.app = r.index(rec.Type, &fits), r.index(rec.App, &fits)
		s.origin, s.peer = r.index(rec.Origin, &fits), r.index(rec.Peer, &fits)
		if s.spilled = !fits; s.spilled {
			r.protocol.keep(recordNames{typ: rec.Type, app: rec.App, peer: rec.Peer, origin: rec.Origin})
		}
		r.commitProtocol(s, rec.T)
	}
	r.mu.Unlock()
}

// RecordEvent records a protocol trace event, classifying quorum decisions
// (manager update-quorum, host quorum allow) under KindQuorum. The record
// is built in its slot; its note is rendered only when the journal is read.
func (r *Recorder) RecordEvent(e trace.Event) {
	r.mu.Lock()
	s := r.protocol.slot()
	fits := true
	s.kind, s.typ, s.event, s.word, s.trace = eventKind(e.Type), 0, e.Type, e.Word, e.Trace
	s.app, s.user = r.index(string(e.App), &fits), string(e.User)
	s.origin, s.counter = r.index(string(e.Seq.Origin), &fits), e.Seq.Counter
	s.peer, s.note, s.num = r.index(string(e.Peer), &fits), "", e.Num != 0
	if s.num {
		if e.Seq.Counter == 0 {
			s.counter = uint64(e.Num)
		} else { // no room for both: keep the counter and the note as text
			s.note, s.num = e.Note(), false
		}
	}
	if s.spilled = !fits; s.spilled {
		r.protocol.keep(recordNames{app: string(e.App), peer: string(e.Peer), origin: string(e.Seq.Origin)})
	}
	r.commitProtocol(s, e.Time)
	r.mu.Unlock()
}

// RecordCacheHit appends the decision record of a cache hit — the one
// record on the per-check hot path — built in its slot rather than
// constructed by the caller and copied in: t is the decision time, granters
// the cached entry's evidence and left its time left at t (math.MaxInt64:
// it never expires), so the record's Expiry is t+left and no time.Time is
// built for it. The right is taken by value, and it and the app are resolved
// through their memos, so that a hit seldom hashes a name.
func (r *Recorder) RecordCacheHit(t time.Time, trace uint64, app, user string, right wire.Right, granters int, left time.Duration) {
	r.mu.Lock()
	s := r.decided.slot()
	*s = decisionSlot{}
	fits := true
	s.kind, s.trace, s.user = KindDecision, trace, user
	s.app, s.right = r.appIndex(&r.hitApp, app, &fits), r.rightIndex(right, &fits)
	s.reason, s.flags, s.granters = ReasonCacheHit, flagAllowed, sat8(granters)
	if !fits {
		s.flags |= flagSpilled
		r.decided.keep(recordNames{app: app, right: right.String()})
	}
	s.t = r.stamp(t)
	s.expiry = after(s.t, left)
	r.commitDecision(s)
	r.mu.Unlock()
}

// after is the offset left past offset t: trace.Never for math.MaxInt64,
// saturating short of it otherwise.
func after(t int64, left time.Duration) int64 {
	switch {
	case left == math.MaxInt64:
		return trace.Never
	case t > 0 && int64(left) > trace.Never-1-t:
		return trace.Never - 1
	}
	return t + int64(left)
}

// unpackProtocol rebuilds retained protocol-window record i from its slot
// into *rec. Must be called with r.mu held.
func (r *Recorder) unpackProtocol(i uint64, rec *Record) {
	s := r.protocol.at(i)
	n := recordNames{typ: r.names.Name(s.typ), app: r.names.Name(s.app), peer: r.names.Name(s.peer),
		origin: r.names.Name(s.origin)}
	if s.spilled {
		n = r.protocol.kept(i)
	}
	*rec = Record{Seq: s.seq, T: r.epoch.Time(s.t), Node: r.node, Kind: s.kind, Type: n.typ, Trace: s.trace,
		App: n.app, User: s.user, Origin: n.origin, Counter: s.counter, Peer: n.peer, Note: s.note}
	if s.event != 0 {
		rec.Type, rec.Peer = s.event.String(), ""
		if rec.Note == "" {
			var num int64
			if s.num {
				num, rec.Counter = int64(s.counter), 0
			}
			rec.Note = trace.Note(s.event, s.word, wire.NodeID(n.peer), num)
		}
	}
}

// unpackDecision rebuilds decisions-window record i (retained, or the last
// committed) from its slot into *rec, every field of it: the sink's record
// is unpacked once a decision, and a composite literal would be built aside
// and copied in. Must be called with r.mu held.
func (r *Recorder) unpackDecision(i uint64, rec *Record) {
	s := r.decided.at(i)
	n := recordNames{app: r.names.Name(s.app), right: r.names.Name(s.right), managers: r.names.Name(s.managers),
		peer: r.names.Name(s.peer), origin: r.names.Name(s.origin)}
	if s.flags&flagSpilled != 0 {
		n = r.decided.kept(i)
	}
	rec.Seq, rec.T, rec.Node, rec.Kind, rec.Type, rec.Trace = s.seq, r.epoch.Time(s.t), r.node, s.kind, "", s.trace
	rec.App, rec.User, rec.Right, rec.Origin, rec.Counter = n.app, s.user, n.right, n.origin, s.counter
	rec.Peer, rec.Note, rec.Reason, rec.Allowed = n.peer, "", s.reason, s.flags&flagAllowed != 0
	rec.Set, rec.Attempts, rec.Queried, rec.Quorum = s.set, int(s.attempts), int(s.queried), int(s.quorum)
	rec.Confirmations, rec.Denials, rec.Granters = int(s.confirmations), int(s.denials), int(s.granters)
	rec.Managers, rec.Expire, rec.Expiry = n.managers, s.expire, r.epoch.Time(s.expiry)
	rec.Backoffs, rec.Frozen = int(s.backoffs), s.flags&flagFrozen != 0
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
			r.unpackProtocol(p, &rec)
			p++
		} else {
			r.unpackDecision(d, &rec)
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

// Drops implements trace.Dropper: Tee records every type but a cache hit,
// and drops a hit when next does.
func (t teeTracer) Drops(typ trace.EventType) bool {
	return typ == trace.EventCacheHit && (t.next == nil || trace.Drops(t.next, typ))
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
	rec  Record // a copy of the lent record to encode, which escapes
}

// NewWriter returns a line-streaming sink. The caller owns w's lifecycle.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Accept implements Sink.
func (w *Writer) Accept(rec *Record) {
	w.mu.Lock()
	w.rec = *rec
	if err := w.enc.Encode(&w.rec); err != nil {
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
