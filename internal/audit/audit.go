// Package audit records per-decision provenance: one structured record for
// every access decision a host makes (and every query verdict a manager
// serves), carrying the evidence that produced it — the cache entry and its
// granting managers, the quorum round and responding manager set, or the
// fallback rule and the attempts that exhausted R (Figure 4).
//
// Records are emitted at the same call sites as HostStats and the telemetry
// counters, so the three views cannot drift (pinned by exactness tests in
// internal/core). They flow into a bounded ring per node with the same
// discipline as internal/flight — slots allocated as records arrive and
// written in place once the ring is full, struct copies, drop accounting —
// and optionally into a JSONL sink for live deployments
// (`acnode -audit.jsonl`). cmd/acaudit joins dumped records
// with flight timelines and spans to answer "why was user U allowed on
// app A at time T".
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"sync"
	"time"
)

// Reason explains a record: why the decision came out the way it did, or —
// for manager-side records — what verdict a query received. Each decision
// reason statically implies the outcome (Allowed), which is what lets the
// harness oracle cross-check evidence against outcomes.
type Reason uint8

// Decision reasons (host side). The names are stable: they are label values
// on wanac_host_check_reasons_total and appear in dumps and transcripts.
const (
	// ReasonCacheHit: allowed from a fresh ACL_cache entry (§3.2).
	ReasonCacheHit Reason = iota + 1
	// ReasonQuorumAllow: C distinct managers granted within a round.
	ReasonQuorumAllow
	// ReasonDefaultAllow: R query rounds went unanswered and the
	// high-availability rule (Figure 4) allowed by default.
	ReasonDefaultAllow
	// ReasonResolveAllow: name-service resolution failed R times and the
	// high-availability rule allowed by default.
	ReasonResolveAllow
	// ReasonQuorumDeny: enough managers explicitly denied that C grants
	// became impossible even from the full manager set.
	ReasonQuorumDeny
	// ReasonUnreachableDeny: R query rounds went unanswered and the policy
	// fails safe.
	ReasonUnreachableDeny
	// ReasonResolveDeny: name-service resolution failed R times and the
	// policy fails safe.
	ReasonResolveDeny
	// ReasonUnregisteredDeny: the app is not registered on this host (or
	// the right is invalid), including apps unregistered mid-check.
	ReasonUnregisteredDeny

	// Manager response reasons: one per query verdict.
	ReasonQueryGranted
	ReasonQueryDenied
	ReasonQueryFrozen
	ReasonQueryShed
	ReasonQueryUnknownApp

	reasonCount
)

// NumReasons is one past the largest Reason value, for arrays indexed by
// Reason.
const NumReasons = int(reasonCount)

var reasonNames = [NumReasons]string{
	ReasonCacheHit:         "cache_hit",
	ReasonQuorumAllow:      "quorum_allow",
	ReasonDefaultAllow:     "default_allow",
	ReasonResolveAllow:     "default_allow_resolve",
	ReasonQuorumDeny:       "quorum_deny",
	ReasonUnreachableDeny:  "deny_unreachable",
	ReasonResolveDeny:      "deny_resolve",
	ReasonUnregisteredDeny: "deny_unregistered",
	ReasonQueryGranted:     "query_granted",
	ReasonQueryDenied:      "query_denied",
	ReasonQueryFrozen:      "query_frozen",
	ReasonQueryShed:        "query_shed",
	ReasonQueryUnknownApp:  "query_unknown_app",
}

// DecisionReasons lists the host-side decision reasons in stable order
// (the order the reason counters and transcript summaries use).
var DecisionReasons = []Reason{
	ReasonCacheHit, ReasonQuorumAllow, ReasonDefaultAllow, ReasonResolveAllow,
	ReasonQuorumDeny, ReasonUnreachableDeny, ReasonResolveDeny, ReasonUnregisteredDeny,
}

// String returns the reason's stable name.
func (r Reason) String() string {
	if int(r) < len(reasonNames) && reasonNames[r] != "" {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason-%d", uint8(r))
}

// ParseReason maps a stable name back to its Reason.
func ParseReason(s string) (Reason, bool) {
	for r, name := range reasonNames {
		if name == s {
			return Reason(r), true
		}
	}
	return 0, false
}

// Decision reports whether r is a host-side decision reason (as opposed to
// a manager-side query verdict).
func (r Reason) Decision() bool {
	return r >= ReasonCacheHit && r <= ReasonUnregisteredDeny
}

// Allowed reports the outcome the reason statically implies. Only
// meaningful for decision reasons.
func (r Reason) Allowed() bool {
	switch r {
	case ReasonCacheHit, ReasonQuorumAllow, ReasonDefaultAllow, ReasonResolveAllow:
		return true
	}
	return false
}

// Default reports whether the reason is a default-rule fallback (Figure 4),
// as opposed to a positive verification.
func (r Reason) Default() bool {
	return r == ReasonDefaultAllow || r == ReasonResolveAllow
}

// MarshalJSON writes the stable name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON accepts a stable name.
func (r *Reason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	p, ok := ParseReason(s)
	if !ok {
		return fmt.Errorf("unknown audit reason %q", s)
	}
	*r = p
	return nil
}

// Kind separates host decisions from manager query responses in mixed
// dumps.
type Kind uint8

// Record kinds.
const (
	// KindDecision: a host resolved a check.
	KindDecision Kind = iota + 1
	// KindResponse: a manager answered (or shed) a host query.
	KindResponse
)

var kindNames = map[Kind]string{
	KindDecision: "decision",
	KindResponse: "response",
}

var kindValues = map[string]Kind{
	"decision": KindDecision,
	"response": KindResponse,
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalJSON writes the stable name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts a stable name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := kindValues[s]
	if !ok {
		return fmt.Errorf("unknown audit kind %q", s)
	}
	*k = v
	return nil
}

// Record is one audit entry. Evidence fields are populated per reason:
// cache hits carry Granters and the entry's Expiry; quorum allows carry
// Confirmations, the granting Managers set, and the granted Expire;
// quorum denies carry Denials against Set (and how many were Queried);
// default-rule fallbacks carry the Attempts that exhausted R. Manager
// responses carry the querying Peer and the seq (Origin/Counter) of the
// last ACL operation the verdict rests on.
type Record struct {
	Seq   uint64    `json:"seq"`             // ring sequence, monotonic per node
	T     time.Time `json:"t"`               // node-local decision time
	Node  string    `json:"node"`            // emitting node
	Kind  Kind      `json:"kind"`            // decision | response
	Trace uint64    `json:"trace,omitempty"` // check-wide correlation ID (PR-4)

	App   string `json:"app,omitempty"`
	User  string `json:"user,omitempty"`
	Right string `json:"right,omitempty"`

	Reason  Reason `json:"reason"`
	Allowed bool   `json:"allowed,omitempty"`

	// Decision evidence. Set comes first, and is a byte (a host takes at most
	// 64 managers), to sit in Allowed's padding: the ring's slots do not grow.
	Set           uint8         `json:"set,omitempty"`           // M, the size of Managers(A) at the decision
	Attempts      int           `json:"attempts,omitempty"`      // query rounds consumed (R budget)
	Queried       int           `json:"queried,omitempty"`       // managers queried in the final round
	Quorum        int           `json:"quorum,omitempty"`        // the policy's check quorum C
	Confirmations int           `json:"confirmations,omitempty"` // distinct granting managers
	Denials       int           `json:"denials,omitempty"`       // distinct managers denying in the final round
	Granters      int           `json:"granters,omitempty"`      // cache hit: managers vouching for the entry
	Managers      string        `json:"managers,omitempty"`      // quorum allow: sorted granting set, comma-joined
	Expire        time.Duration `json:"expire_ns,omitempty"`     // granted te (quorum allow / manager grant)
	Expiry        time.Time     `json:"expiry,omitempty"`        // cache-entry / fresh-grant limit, node-local clock
	Backoffs      int           `json:"backoffs,omitempty"`      // busy/backoff deferrals during the check
	Frozen        bool          `json:"frozen,omitempty"`        // a manager reported the freeze state (§3.3)

	// Response evidence.
	Peer    string `json:"peer,omitempty"`    // manager response: the querying host
	Origin  string `json:"origin,omitempty"`  // seq of the last ACL op the verdict rests on
	Counter uint64 `json:"counter,omitempty"` //
}

// Sink receives every record accepted by a Recorder, in ring order. Sinks
// run under the recorder lock: they must not block or call back in.
type Sink interface {
	RecordAudit(Record)
}

// Recorder is a bounded per-node audit ring with the internal/flight
// discipline: a ring that starts empty, doubles in place as records arrive
// and wraps from size slots on; records built in their slots, no heap
// allocation per record once the ring is full, and exact drop accounting
// (Total minus retained). Safe for concurrent use.
type Recorder struct {
	node string
	now  func() time.Time
	sink Sink
	size int // capacity: the ring grows to this many slots, then wraps

	mu        sync.Mutex
	ring      []Record // len(ring) slots allocated so far, at most size
	next      uint64   // total records accepted; next % len(ring) is the slot
	decisions uint64   // accepted records with Kind == KindDecision
	responses uint64   // accepted records with Kind == KindResponse
}

// minRing is how many slots a ring's first record allocates (fewer if the
// capacity is smaller): growth by doubling starts from here.
const minRing = 64

// NewRecorder creates a ring holding the last size records for node. now
// stamps records missing a time; nil falls back to time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if size <= 0 {
		size = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, size: size}
}

// SetSink installs a sink receiving every accepted record (nil disables).
// Install before traffic flows; the sink sees only records accepted after
// the call.
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Node returns the recorder's node name.
func (r *Recorder) Node() string { return r.node }

// Record appends rec, stamping Node, Seq, and (if zero) T. A full ring's
// slot is overwritten in place, so steady-state recording allocates nothing.
func (r *Recorder) Record(rec Record) {
	r.mu.Lock()
	s := r.slot()
	*s = rec
	r.commit(s)
	r.mu.Unlock()
}

// RecordCacheHit appends the decision record of a cache hit — the one
// record on the per-check hot path — built in its ring slot rather than
// constructed by the caller and copied in: t is the decision time, granters
// and expiry the cached entry's evidence.
func (r *Recorder) RecordCacheHit(t time.Time, trace uint64, app, user, right string, granters int, expiry time.Time) {
	r.mu.Lock()
	s := r.slot()
	*s = Record{}
	s.T = t
	s.Kind = KindDecision
	s.Trace = trace
	s.App, s.User, s.Right = app, user, right
	s.Reason, s.Allowed = ReasonCacheHit, true
	s.Granters = granters
	s.Expiry = expiry
	r.commit(s)
	r.mu.Unlock()
}

// slot returns the ring slot the next record goes in, still holding the
// record it overwrites (if any). Must be called with r.mu held. The ring
// grows as flight.Recorder's does: next == len(ring) is the only time a
// growing ring lacks a slot, and a full ring meets it once, on its first wrap.
func (r *Recorder) slot() *Record {
	if r.next == uint64(len(r.ring)) {
		r.grow()
	}
	return &r.ring[r.next%uint64(len(r.ring))]
}

// grow doubles the ring in place, up to its capacity; at capacity it does
// nothing. Below capacity the ring has not wrapped, so slot i keeps Seq i.
// Not inlined, to stay out of every record's write.
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

// commit stamps the record built in s, accepts it, and feeds the sink.
func (r *Recorder) commit(s *Record) {
	if s.T.IsZero() {
		s.T = r.now()
	}
	s.Node = r.node
	s.Seq = r.next
	r.next++
	switch s.Kind {
	case KindDecision:
		r.decisions++
	case KindResponse:
		r.responses++
	}
	if r.sink != nil {
		r.sink.RecordAudit(*s)
	}
}

// Total returns how many records were ever accepted (retained or not).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Decisions returns how many decision-kind records were ever accepted.
func (r *Recorder) Decisions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decisions
}

// Dropped returns how many accepted records the ring has since overwritten.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - r.retained()
}

// retained is how many records the ring holds. Must be called with r.mu held.
func (r *Recorder) retained() uint64 { return min(r.next, uint64(len(r.ring))) }

// all yields the retained records, oldest first, in their slots. Must be
// called with r.mu held.
func (r *Recorder) all(yield func(*Record) bool) {
	size := uint64(len(r.ring))
	for i := r.next - r.retained(); i < r.next; i++ {
		if !yield(&r.ring[i%size]) {
			return
		}
	}
}

// All iterates over the retained records, oldest first, where they lie: no
// copy of the ring is made, so a pass over a finished run costs no memory.
// The records are the ring's own slots — read them, do not write them — and
// a pointer stays good until the next record is accepted. All holds the
// recorder's lock while the loop runs: the body must not call back into the
// recorder.
func (r *Recorder) All() iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.all(yield)
	}
}

// Snapshot returns a copy of the retained records, oldest first.
func (r *Recorder) Snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshot()
}

// snapshot is Snapshot with r.mu held.
func (r *Recorder) snapshot() []Record {
	out := make([]Record, 0, r.retained())
	for rec := range r.all {
		out = append(out, *rec)
	}
	return out
}

// Writer is a Sink streaming each record as one JSON line (the
// `acnode -audit.jsonl` stream). Encode errors are counted, not raised:
// auditing must never take the protocol down.
type Writer struct {
	mu   sync.Mutex
	enc  *json.Encoder
	errs int
}

// NewWriter returns a line-streaming sink. The caller owns w's lifecycle.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// RecordAudit implements Sink.
func (w *Writer) RecordAudit(rec Record) {
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
