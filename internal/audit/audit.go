// Package audit records per-decision provenance: one structured record for
// every access decision a host makes (and every query verdict a manager
// serves), carrying the evidence that produced it — the cache entry and its
// granting managers, the quorum round and responding manager set, or the
// fallback rule and the attempts that exhausted R (Figure 4).
//
// Records are emitted at the same call sites as the node counts that
// HostStats and the telemetry counters read, so the views cannot drift
// (pinned by exactness tests in internal/core). They flow into a bounded ring per node — the same
// internal/ring as internal/flight's, with the same dump codec — and
// optionally into a JSONL sink for live deployments
// (`acnode -audit.jsonl`). cmd/acaudit joins dumped records
// with flight timelines by trace ID to answer "why was user U allowed on
// app A at time T".
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"sync"
	"time"
	"unsafe"

	"wanac/internal/ring"
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
	for v, name := range kindNames {
		if name == s {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("unknown audit kind %q", s)
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

// Recorder is a node's audit ring (ring.Ring: it starts empty, doubles in
// place as records arrive and wraps at its capacity), with records built in
// their slots, no heap allocation per record once the ring is full, and exact
// drop accounting (Total minus retained). Safe for concurrent use.
type Recorder struct {
	node string
	now  func() time.Time
	sink Sink

	mu        sync.Mutex
	ring      ring.Ring[slot]
	epoch     ring.Epoch // T and Expiry offsets count from the first stamped T
	decisions uint64     // accepted records with Kind == KindDecision
	responses uint64     // accepted records with Kind == KindResponse
}

// slot is a Record as the ring keeps it. Node is the recorder's and Seq the
// ring position's; the times are epoch offsets (ring.Never: a zero Expiry),
// and the counts are narrowed, saturating rather than wrapping, so a count
// out of its domain stays out of it.
type slot struct {
	t, expiry                                              int64
	trace, counter                                         uint64
	expire                                                 time.Duration
	app, user, right, managers, peer, origin               string
	attempts, backoffs                                     int32
	kind                                                   Kind
	reason                                                 Reason
	allowed, frozen                                        bool
	set, queried, quorum, confirmations, denials, granters uint8
}

// SlotBytes is what one retained record costs the ring, its strings aside.
const SlotBytes = int(unsafe.Sizeof(slot{}))

func sat8(n int) uint8  { return uint8(min(max(n, 0), math.MaxUint8)) }
func sat32(n int) int32 { return int32(min(max(n, math.MinInt32), math.MaxInt32)) }

// NewRecorder creates a ring holding the last size records for node (at
// least one). now stamps records missing a time; nil falls back to time.Now.
func NewRecorder(node string, size int, now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{node: node, now: now, ring: ring.New[slot](size)}
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
	s := r.ring.Slot()
	s.kind, s.trace = rec.Kind, rec.Trace
	s.app, s.user, s.right = rec.App, rec.User, rec.Right
	s.reason, s.allowed, s.set = rec.Reason, rec.Allowed, rec.Set
	s.attempts, s.queried, s.quorum = sat32(rec.Attempts), sat8(rec.Queried), sat8(rec.Quorum)
	s.confirmations, s.denials, s.granters = sat8(rec.Confirmations), sat8(rec.Denials), sat8(rec.Granters)
	s.managers, s.expire, s.backoffs, s.frozen = rec.Managers, rec.Expire, sat32(rec.Backoffs), rec.Frozen
	s.peer, s.origin, s.counter = rec.Peer, rec.Origin, rec.Counter
	r.commit(s, rec.T, rec.Expiry)
	r.mu.Unlock()
}

// RecordCacheHit appends the decision record of a cache hit — the one
// record on the per-check hot path — built in its ring slot rather than
// constructed by the caller and copied in: t is the decision time, granters
// and expiry the cached entry's evidence.
func (r *Recorder) RecordCacheHit(t time.Time, trace uint64, app, user, right string, granters int, expiry time.Time) {
	r.mu.Lock()
	s := r.ring.Slot()
	*s = slot{}
	s.kind, s.trace = KindDecision, trace
	s.app, s.user, s.right = app, user, right
	s.reason, s.allowed, s.granters = ReasonCacheHit, true, sat8(granters)
	r.commit(s, t, expiry)
	r.mu.Unlock()
}

// commit stamps the record built in s with its times — t, or the clock if t
// is zero, then expiry — accepts it, counts its kind, and feeds the sink.
// Must be called with r.mu held.
func (r *Recorder) commit(s *slot, t, expiry time.Time) {
	if t.IsZero() {
		t = r.now()
	}
	s.t, s.expiry = r.epoch.Offset(t), r.epoch.Offset(expiry)
	seq := r.ring.Next()
	r.ring.Commit()
	switch s.kind {
	case KindDecision:
		r.decisions++
	case KindResponse:
		r.responses++
	}
	if r.sink != nil {
		r.sink.RecordAudit(r.unpack(seq, s))
	}
}

// unpack rebuilds record seq from its slot s. Must be called with r.mu held.
func (r *Recorder) unpack(seq uint64, s *slot) Record {
	return Record{Seq: seq, T: r.epoch.Time(s.t), Node: r.node, Kind: s.kind, Trace: s.trace, App: s.app, User: s.user,
		Right: s.right, Reason: s.reason, Allowed: s.allowed, Set: s.set, Attempts: int(s.attempts), Queried: int(s.queried),
		Quorum: int(s.quorum), Confirmations: int(s.confirmations), Denials: int(s.denials), Granters: int(s.granters),
		Managers: s.managers, Expire: s.expire, Expiry: r.epoch.Time(s.expiry), Backoffs: int(s.backoffs), Frozen: s.frozen,
		Peer: s.peer, Origin: s.origin, Counter: s.counter}
}

// Total returns how many records were ever accepted (retained or not).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Next()
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
	return r.ring.Next() - r.ring.Retained()
}

// All iterates over the retained records, oldest first, unpacking each
// from its slot into one Record: no copy of the ring is made, so a pass over
// a finished run costs no memory, and a yielded pointer is good only until
// the next iteration. All holds the recorder's lock while the loop runs: the
// body must not call back into the recorder.
func (r *Recorder) All() iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		var rec Record
		r.ring.All(func(seq uint64, s *slot) bool { rec = r.unpack(seq, s); return yield(&rec) })
	}
}

// Snapshot returns a copy of the retained records, oldest first.
func (r *Recorder) Snapshot() []Record { return r.Dump().Records }

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
