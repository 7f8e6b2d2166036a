// Package flight implements the per-node black-box flight recorder: an
// always-on, bounded, lock-cheap ring buffer of recent structured events —
// protocol events (internal/trace), transport state changes
// (internal/netcore), partition and clock injections (internal/simnet),
// and quorum decisions. When something goes wrong (an
// oracle violation in the harness, a panic or an operator request on a live
// node) the ring is dumped as versioned JSONL; cmd/acflight merges dumps
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

var kindValues = map[string]Kind{
	"protocol":  KindProtocol,
	"transport": KindTransport,
	"net":       KindNet,
	"quorum":    KindQuorum,
	"mark":      KindMark,
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
	v, ok := kindValues[string(b[1:len(b)-1])]
	if !ok {
		return fmt.Errorf("flight: unknown kind %s", b)
	}
	*k = v
	return nil
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

// Recorder is a fixed-capacity ring of Records. All methods are safe for
// concurrent use; Record never blocks beyond a short mutex hold and, once the
// ring has grown to its capacity, never allocates, so it is cheap enough to
// leave on in production — that is the point of a flight recorder.
//
// The ring's memory follows its use: it starts empty, doubles in place as
// records arrive, and from size slots on wraps. A node that records little
// holds little, which is what lets a simulation afford thousands of worlds
// with every node's recorder on.
type Recorder struct {
	node string
	now  func() time.Time
	size int // capacity: the ring grows to this many slots, then wraps

	mu   sync.Mutex
	ring []Record // len(ring) slots allocated so far, at most size
	next uint64   // total records ever accepted; the next Seq
}

// minRing is how many slots a ring's first record allocates (fewer if the
// capacity is smaller): growth by doubling starts from here.
const minRing = 64

// NewRecorder returns a recorder for the named node holding the last size
// records (minimum 16). now supplies the node's local clock — in simulation
// this is the node's Env.Now (which may drift); nil means time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if size < 16 {
		size = 16
	}
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, size: size}
}

// Node returns the recorder's node name.
func (r *Recorder) Node() string { return r.node }

// slot returns the ring slot the next record goes in, still holding the
// record it overwrites (if any); the caller builds the new one in place,
// stamps it — Seq, Node, and the local clock if T is zero — and accepts it by
// advancing next. Stamping under the lock keeps Seq order and timestamp order
// in agreement for records the recorder stamps itself. Must be called with
// r.mu held.
//
// Every allocated slot is in use exactly when next == len(ring), and while
// the ring is still growing that is the only time there is no slot for the
// next record; a full ring passes through it once, on its first wrap, so its
// write costs one compare that is false ever after.
func (r *Recorder) slot() *Record {
	if r.next == uint64(len(r.ring)) {
		r.grow()
	}
	return &r.ring[r.next%uint64(len(r.ring))]
}

// grow doubles the ring in place, up to its capacity; at capacity it does
// nothing. The records keep their indices: below capacity the ring has not
// wrapped, so slot i holds Seq i. Not inlined: it runs a dozen times in a
// ring's life and its body would sit in the middle of every record's write.
//
//go:noinline
func (r *Recorder) grow() {
	n := min(max(2*len(r.ring), minRing), r.size)
	if n == len(r.ring) {
		return
	}
	ring := make([]Record, n)
	copy(ring, r.ring)
	r.ring = ring
}

// Record appends rec to the ring, assigning Seq and Node, and stamping the
// local clock if rec.T is zero. The oldest record is overwritten once the
// ring is full.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	s := r.slot()
	*s = rec
	if s.T.IsZero() {
		s.T = r.now()
	}
	s.Node = r.node
	s.Seq = r.next
	r.next++
	r.mu.Unlock()
}

// RecordEvent records a protocol trace event, classifying quorum decisions
// (manager update-quorum, host quorum allow) under KindQuorum. The record
// is built and stamped in its ring slot: a Record is large enough that
// constructing one and copying it in shows.
func (r *Recorder) RecordEvent(e trace.Event) {
	kind := KindProtocol
	if e.Type == trace.EventUpdateQuorum || e.Type == trace.EventAccessAllowed {
		kind = KindQuorum
	}
	r.mu.Lock()
	s := r.slot()
	*s = Record{}
	s.T = e.Time
	if s.T.IsZero() {
		s.T = r.now()
	}
	s.Node = r.node
	s.Seq = r.next
	s.Kind = kind
	s.Type = e.Type.String()
	s.Trace = e.Trace
	s.App = string(e.App)
	s.User = string(e.User)
	s.Origin = string(e.Seq.Origin)
	s.Counter = e.Seq.Counter
	s.Note = e.Note
	r.next++
	r.mu.Unlock()
}

// Total returns how many records were ever accepted (≥ retained).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the retained records, oldest first.
func (r *Recorder) Snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshot()
}

// snapshot is Snapshot with r.mu held.
func (r *Recorder) snapshot() []Record {
	n := uint64(len(r.ring))
	if r.next < n {
		n = r.next
	}
	out := make([]Record, 0, n)
	start := r.next - n
	for s := start; s < r.next; s++ {
		out = append(out, r.ring[s%uint64(len(r.ring))])
	}
	return out
}

// teeTracer is Tee's tracer; a nil next ends the chain (no call, no event
// copy).
type teeTracer struct {
	rec  *Recorder
	next trace.Tracer
}

// Tee returns a trace.Tracer that records every event but a cache hit into
// rec and then forwards it to next (which may be nil to stop the chain).
// This is how nodes get flight recording without the core packages
// importing flight.
//
// A cache hit is forwarded but not recorded: the ring keeps protocol
// history — queries, grants, revocations, quorums — which a host serving
// millions of hits a second would otherwise turn over in milliseconds. The
// hit's record is its audit record (internal/audit), joined to spans by
// trace ID; sim.World.FlightDump folds those back into a simulated run's
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
