// Package flight implements the per-node black-box flight recorder: an
// always-on, bounded, lock-cheap ring buffer of recent structured events —
// protocol events (internal/trace), transport state changes
// (internal/netcore), partition and clock injections (internal/simnet),
// and quorum decisions. When something goes wrong (an
// oracle violation in the harness, a panic or an operator request on a live
// node) the ring is dumped as versioned JSONL; acaudit -timeline merges dumps
// from several nodes, aligns their — possibly drifting — clocks and renders
// a causal timeline.
//
// The recorder is designed to ride hot paths for free: recording a value is
// one mutex acquisition and one write of a ring slot, no heap allocation
// (all string fields are header copies of strings that already exist) beyond
// the few that grow a young ring to its capacity. The end-to-end cached-check
// allocation budget (0 allocs/op, see alloc_test.go at the repo root) holds
// with a recorder attached.
package flight

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"wanac/internal/ring"
	"wanac/internal/trace"
)

// Kind groups records into the four event categories the recorder captures.
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
)

var kindNames = map[Kind]string{
	KindProtocol:  "protocol",
	KindTransport: "transport",
	KindNet:       "net",
	KindQuorum:    "quorum",
	KindMark:      "mark",
}

// String returns the kind's stable dump name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalJSON renders the kind as its stable name (dump readability beats a
// bare number; this only runs at dump time, never on the record path).
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the stable names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("flight: kind %s is not a string", b)
	}
	for v, name := range kindNames {
		if name == string(b[1:len(b)-1]) {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("flight: unknown kind %s", b)
}

// Record is one flight-recorder entry. Field types are deliberately plain
// (strings, ints) so a dump round-trips through JSON without importing the
// wire package; recording one costs no allocation because every string is a
// header copy.
type Record struct {
	// Seq is the node-local monotonic sequence number, assigned by the
	// recorder. It keeps same-timestamp records ordered and reveals ring
	// overwrite gaps (a dump whose first record has Seq > 0 lost history).
	Seq uint64 `json:"seq"`
	// T is the node's local clock at record time — subject to drift; the
	// analyzer maps it onto a common frame (see Align).
	T time.Time `json:"t"`
	// Node identifies the recording node. Filled by the recorder.
	Node string `json:"node"`
	Kind Kind   `json:"kind"`
	// Type is the stable event name: a trace.EventType name for protocol
	// and quorum records, a netcore state name for transport records, an
	// injection name (link-cut, partition, heal, crash, recover,
	// clock-rate, annotation) for net records.
	Type string `json:"type"`
	// Trace is the causal check ID (trace.Event.Trace) where one exists.
	Trace uint64 `json:"trace,omitempty"`
	App   string `json:"app,omitempty"`
	User  string `json:"user,omitempty"`
	// Origin/Counter carry wire.UpdateSeq for update events.
	Origin  string `json:"origin,omitempty"`
	Counter uint64 `json:"counter,omitempty"`
	// Peer names the other party: the remote peer for transport records,
	// the far endpoint for link records.
	Peer string `json:"peer,omitempty"`
	Note string `json:"note,omitempty"`
}

// Recorder is a node's flight ring. All methods are safe for concurrent use;
// Record never blocks beyond a short mutex hold and, once the ring has grown
// to its capacity, never allocates, so it is cheap enough to leave on in
// production — that is the point of a flight recorder. Its memory follows its
// use (ring.Ring).
type Recorder struct {
	node string
	now  func() time.Time

	mu    sync.Mutex
	ring  ring.Ring[slot]
	epoch ring.Epoch // T offsets count from the first stamped T
}

// slot is a Record as the ring keeps it: Node is the recorder's, Seq the
// ring position's, and T an epoch offset.
type slot struct {
	t                                  int64
	trace, counter                     uint64
	typ, app, user, origin, peer, note string
	kind                               Kind
}

// SlotBytes is what one retained record costs the ring, its strings aside.
const SlotBytes = int(unsafe.Sizeof(slot{}))

// NewRecorder returns a recorder for the named node holding the last size
// records (at least one). now supplies the node's local clock; nil means
// time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, ring: ring.New[slot](size)}
}

// commit stamps the record built in s with t, or the local clock if t is
// zero, and accepts it. Stamping under the lock keeps Seq order and
// timestamp order in agreement for records the recorder stamps itself. Must
// be called with r.mu held.
func (r *Recorder) commit(s *slot, t time.Time) {
	if t.IsZero() {
		t = r.now()
	}
	s.t = r.epoch.Offset(t)
	r.ring.Commit()
}

// unpack rebuilds record seq from its slot s. Must be called with r.mu held.
func (r *Recorder) unpack(seq uint64, s *slot) Record {
	return Record{Seq: seq, T: r.epoch.Time(s.t), Node: r.node, Kind: s.kind, Type: s.typ, Trace: s.trace,
		App: s.app, User: s.user, Origin: s.origin, Counter: s.counter, Peer: s.peer, Note: s.note}
}

// Record appends rec to the ring, assigning Seq and Node, and stamping the
// local clock if rec.T is zero. The oldest record is overwritten once the
// ring is full.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	s := r.ring.Slot()
	s.kind, s.typ, s.trace = rec.Kind, rec.Type, rec.Trace
	s.app, s.user, s.origin, s.counter = rec.App, rec.User, rec.Origin, rec.Counter
	s.peer, s.note = rec.Peer, rec.Note
	r.commit(s, rec.T)
	r.mu.Unlock()
}

// RecordEvent records a protocol trace event, classifying quorum decisions
// (manager update-quorum, host quorum allow) under KindQuorum. The record
// is built in its ring slot.
func (r *Recorder) RecordEvent(e trace.Event) {
	kind := KindProtocol
	if e.Type == trace.EventUpdateQuorum || e.Type == trace.EventAccessAllowed {
		kind = KindQuorum
	}
	r.mu.Lock()
	s := r.ring.Slot()
	s.kind, s.typ, s.trace = kind, e.Type.String(), e.Trace
	s.app, s.user, s.origin, s.counter = string(e.App), string(e.User), string(e.Seq.Origin), e.Seq.Counter
	s.peer, s.note = "", e.Note
	r.commit(s, e.Time)
	r.mu.Unlock()
}

// Total returns how many records were ever accepted (≥ retained).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Next()
}

// Snapshot returns the retained records, oldest first.
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
// A cache hit is forwarded but not recorded: the ring keeps protocol
// history — queries, grants, revocations, quorums — which a host serving
// millions of hits a second would otherwise turn over in milliseconds. The
// hit's record is its audit record (internal/audit), which carries the
// hit's trace ID; sim.World.FlightDump folds those back into a simulated run's
// timeline.
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
