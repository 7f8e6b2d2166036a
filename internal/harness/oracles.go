package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"wanac/internal/flight"
	"wanac/internal/quorum"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// Oracle names, stable identifiers used in reports and JSON output.
const (
	OracleRevocation   = "revocation-safety"
	OracleSequencing   = "monotonic-sequencing"
	OracleCache        = "cache-hygiene"
	OracleAvailability = "eventual-availability"
	OracleAudit        = "audit-completeness"
)

// Violation is one invariant breach detected by an oracle.
type Violation struct {
	// Oracle is the name of the oracle that fired.
	Oracle string `json:"oracle"`
	// At is the virtual time of the violating observation.
	At time.Time `json:"at"`
	// Detail describes the breach with enough context to debug a replay.
	Detail string `json:"detail"`
}

// String renders a violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%s %s", v.Oracle, v.At.Format("15:04:05.000"), v.Detail)
}

// oracleState is the shared bookkeeping embedded in each concrete oracle:
// how many protocol facts it judged (a passing run with zero observations
// exercised nothing) and the breaches it found, in detection order.
type oracleState struct {
	name string
	obs  int
	viol []Violation
}

func (o *oracleState) fail(at time.Time, format string, args ...any) {
	o.viol = append(o.viol, Violation{Oracle: o.name, At: at, Detail: fmt.Sprintf(format, args...)})
}

// oracles are the five invariant checkers one run is judged by. te and
// queryTimeout parameterize the revocation-safety bound (Te + QueryTimeout);
// cacheLimit bounds host caches for the hygiene oracle (0 means unbounded);
// checkQuorum and maxAttempts parameterize the audit-completeness oracle's
// evidence checks (a quorum allow must cite >= checkQuorum confirmations, a
// default outcome must cite maxAttempts exhausted rounds).
type oracles struct {
	rev   *revocationOracle
	seq   *sequencingOracle
	cache *cacheOracle
	avail *availabilityOracle
	aud   *auditOracle
}

func newOracles(te, queryTimeout time.Duration, cacheLimit, checkQuorum, maxAttempts int) oracles {
	return oracles{
		rev:   newRevocationOracle(te, queryTimeout),
		seq:   newSequencingOracle(),
		cache: newCacheOracle(cacheLimit),
		avail: &availabilityOracle{oracleState: oracleState{name: OracleAvailability}},
		aud:   newAuditOracle(te, checkQuorum, maxAttempts),
	}
}

// all returns the oracles in report order: revocation-safety,
// monotonic-sequencing, cache-hygiene, eventual-availability,
// audit-completeness.
func (s oracles) all() []*oracleState {
	return []*oracleState{&s.rev.oracleState, &s.seq.oracleState, &s.cache.oracleState, &s.avail.oracleState, &s.aud.oracleState}
}

// reports summarizes every oracle's observation and violation counts.
func (s oracles) reports() []OracleReport {
	var out []OracleReport
	for _, o := range s.all() {
		out = append(out, OracleReport{Name: o.name, Observations: o.obs, Violations: len(o.viol)})
	}
	return out
}

// violations returns every breach found, grouped by oracle in report
// order, detection order within each.
func (s oracles) violations() []Violation {
	var out []Violation
	for _, o := range s.all() {
		out = append(out, o.viol...)
	}
	return out
}

// Emit implements trace.Tracer: the oracles are the judge a run's world
// hands every event as a node emits it. The sequencing oracle takes the
// update events; the audit oracle takes the decision events and pairs them
// with the records its journal sinks take (watchJournals).
func (s oracles) Emit(e trace.Event) {
	switch e.Type {
	case trace.EventUpdateIssued, trace.EventUpdateApplied, trace.EventUpdateQuorum:
		s.seq.observe(&e)
	default:
		s.aud.observe(&e)
	}
}

// finish judges what only the end of a run can show.
func (s oracles) finish() {
	s.seq.finish()
	s.aud.finish()
}

// revocationOracle checks the paper's central guarantee (§3.2-3.3): once a
// revocation has reached an update quorum at time t, no host grants that
// user confirmed (non-default) access to a check issued after t + bound.
//
// The bound is Te + QueryTimeout. The protocol promises t + Te: managers
// hand out expiration period te = Te·b, host clocks run no slower than rate
// b, so a cached grant lives at most Te of real time past the round that
// fetched it — and any round that started before the quorum completed at t.
// One QueryTimeout of slack covers a round in flight across the quorum
// instant. This is deliberately tighter than the Te·(1+b) envelope one
// could also defend, so the oracle would catch a manager that ignores b.
type revocationOracle struct {
	oracleState
	bound time.Duration
}

func newRevocationOracle(te, queryTimeout time.Duration) *revocationOracle {
	return &revocationOracle{
		oracleState: oracleState{name: OracleRevocation},
		bound:       te + queryTimeout,
	}
}

// judge is called at decision time for a check issued at start, where
// revokedAt was the user's pending revocation-quorum time when the check was
// issued (zero if none) and stillRevoked reports whether that same
// revocation is still the user's latest admin state (a concurrent re-grant
// clears jurisdiction).
func (o *revocationOracle) judge(user wire.UserID, host int, start, revokedAt time.Time, stillRevoked bool, allowed, defaultAllowed bool) {
	o.obs++
	if revokedAt.IsZero() || !stillRevoked {
		return
	}
	late := start.Sub(revokedAt)
	if allowed && !defaultAllowed && late > o.bound {
		o.fail(start, "host h%d allowed %s %s after revocation quorum (bound %s)",
			host, user, late, o.bound)
	}
}

// cacheOracle checks host cache hygiene (§3.2): after a purge, no retained
// entry may already be expired on the host's local clock, and a configured
// cache bound is never exceeded.
type cacheOracle struct {
	oracleState
	limit int
}

func newCacheOracle(limit int) *cacheOracle {
	return &cacheOracle{oracleState: oracleState{name: OracleCache}, limit: limit}
}

// sweep judges one host observation (see sim.World.CacheObservation).
func (o *cacheOracle) sweep(at time.Time, host, retained, expired int) {
	o.obs++
	if expired > 0 {
		o.fail(at, "host h%d retained %d expired cache entries after purge", host, expired)
	}
	if o.limit > 0 && retained > o.limit {
		o.fail(at, "host h%d cache holds %d entries, limit %d", host, retained, o.limit)
	}
}

// sequencingOracle checks manager update ordering as the updates go
// (§3.3's FIFO per-origin dissemination): every manager applies each
// origin's updates in strictly increasing counter order, each origin issues
// strictly increasing counters, and no update reaches quorum before it was
// issued. Valid as long as the scenario never crash-recovers a manager
// (recovery resyncs state and may legitimately replay counters).
//
// It keeps the last counter per origin and per (manager, origin), the
// updates issued whose quorum it has not seen, the quorums whose issue it
// has not seen, and per origin the counters whose quorum it judged, as
// spans: one, plus one per update still short of its quorum.
type sequencingOracle struct {
	oracleState
	lastIssued  map[wire.NodeID]uint64
	lastApplied map[applyKey]uint64
	issuedAt    map[wire.UpdateSeq]time.Time // issued, quorum not seen yet
	early       []earlyQuorum                // quorum seen, issue not seen yet, by quorum
	quorate     map[wire.NodeID]*spans       // per origin, counters whose quorum was seen
}

// earlyQuorum is an update whose quorum came before its issue.
type earlyQuorum struct {
	seq wire.UpdateSeq
	at  time.Time
}

type applyKey struct {
	node   wire.NodeID
	origin wire.NodeID
}

func newSequencingOracle() *sequencingOracle {
	return &sequencingOracle{
		oracleState: oracleState{name: OracleSequencing},
		lastIssued:  make(map[wire.NodeID]uint64),
		lastApplied: make(map[applyKey]uint64),
		issuedAt:    make(map[wire.UpdateSeq]time.Time),
		quorate:     make(map[wire.NodeID]*spans),
	}
}

// observe judges one update event. An update is judged once, at its first
// quorum event and its first issue event, whichever comes second.
func (o *sequencingOracle) observe(e *trace.Event) {
	switch e.Type {
	case trace.EventUpdateIssued:
		o.obs++
		if prev, ok := o.lastIssued[e.Seq.Origin]; ok && e.Seq.Counter <= prev {
			o.fail(e.Time, "origin %s issued counter %d after %d", e.Seq.Origin, e.Seq.Counter, prev)
		}
		o.lastIssued[e.Seq.Origin] = e.Seq.Counter
		if i := slices.IndexFunc(o.early, func(q earlyQuorum) bool { return q.seq == e.Seq }); i >= 0 {
			o.judgeQuorum(e.Seq, o.early[i].at, e.Time)
			o.early = slices.Delete(o.early, i, i+1)
		} else if _, ok := o.issuedAt[e.Seq]; !ok && !o.quorateOf(e.Seq.Origin).has(e.Seq.Counter) {
			o.issuedAt[e.Seq] = e.Time
		}
	case trace.EventUpdateApplied:
		o.obs++
		k := applyKey{node: e.Node, origin: e.Seq.Origin}
		if prev, ok := o.lastApplied[k]; ok && e.Seq.Counter <= prev {
			o.fail(e.Time, "manager %s applied %s/%d after %s/%d",
				e.Node, e.Seq.Origin, e.Seq.Counter, e.Seq.Origin, prev)
		}
		o.lastApplied[k] = e.Seq.Counter
	case trace.EventUpdateQuorum:
		q := o.quorateOf(e.Seq.Origin)
		if q.has(e.Seq.Counter) {
			return // judged, or waiting for its issue, already
		}
		q.add(e.Seq.Counter)
		o.obs++
		if it, ok := o.issuedAt[e.Seq]; ok {
			delete(o.issuedAt, e.Seq)
			o.judgeQuorum(e.Seq, e.Time, it)
			return
		}
		o.early = append(o.early, earlyQuorum{e.Seq, e.Time})
	}
}

// quorateOf returns origin's quorate counters.
func (o *sequencingOracle) quorateOf(origin wire.NodeID) *spans {
	q := o.quorate[origin]
	if q == nil {
		q = &spans{}
		o.quorate[origin] = q
	}
	return q
}

func (o *sequencingOracle) judgeQuorum(seq wire.UpdateSeq, qt, it time.Time) {
	if qt.Before(it) {
		o.fail(qt, "update %s/%d reached quorum at %s before issue at %s",
			seq.Origin, seq.Counter, qt.Format("15:04:05.000"), it.Format("15:04:05.000"))
	}
}

// finish reports the quorums never issued, in the order they were reached.
func (o *sequencingOracle) finish() {
	for _, q := range o.early {
		o.fail(q.at, "update %s/%d reached quorum but was never issued", q.seq.Origin, q.seq.Counter)
	}
	o.early = nil
}

// spans is a set of counters as sorted, disjoint, non-adjacent closed
// intervals. The quorums one origin reaches, nearly in counter order, take
// one span, plus one for each update between them that has not reached its
// quorum.
type spans []span

type span struct{ lo, hi uint64 }

// find returns the index of the first span ending at or after n.
func (s spans) find(n uint64) int {
	return sort.Search(len(s), func(i int) bool { return s[i].hi >= n })
}

func (s spans) has(n uint64) bool {
	i := s.find(n)
	return i < len(s) && s[i].lo <= n
}

// add puts n, which s does not hold, in s.
func (s *spans) add(n uint64) {
	v := *s
	i := v.find(n)
	left := i > 0 && v[i-1].hi+1 == n
	right := i < len(v) && v[i].lo-1 == n
	switch {
	case left && right:
		v[i-1].hi = v[i].hi
		v = slices.Delete(v, i, i+1)
	case left:
		v[i-1].hi = n
	case right:
		v[i].lo = n
	default:
		v = slices.Insert(v, i, span{n, n})
	}
	*s = v
}

// availabilityOracle checks liveness (§2.3): after the network heals, a host
// can again confirm access for a user whose grant was stable before the
// heal. Each armed probe retries every 2 s until the settle window closes;
// a probe that never sees an allow — absent interference (a new disruption,
// a reset of the probed host, or a revocation of the probed user, any of
// which silently aborts the probe) — is a violation.
//
// The window is a fixed settle period rather than the strict "R query
// rounds" reading: with message loss up to 15% and C up to M confirmations
// per round, a single round can fail benignly; retrying across the window
// separates real unavailability from unlucky loss while still bounding
// recovery time.
type availabilityOracle struct {
	oracleState
}

// probe tracks one armed post-heal availability obligation (one
// observation each). The runner marks it done when a probe round sees an
// allow, or aborted when interference (a new disruption, a host reset, a
// revocation of the probed user) voids the obligation.
type probe struct {
	host          int
	user          wire.UserID
	healAt        time.Time
	done, aborted bool
}

// judge closes a probe at its deadline: one neither done nor aborted is a
// liveness violation.
func (o *availabilityOracle) judge(pr *probe, at time.Time) {
	if pr.done || pr.aborted {
		return
	}
	o.fail(at, "host h%d never confirmed access for stable user %s within %s of heal",
		pr.host, pr.user, availWindow)
}

// auditOracle checks decision provenance (internal/audit), two ways at
// once, as the run goes. Completeness: every decision event has exactly one
// audit record — its node's journal hands the oracle each record it accepts
// (watchJournals), and the two streams are paired per node, first in, first
// out, on (time, app, user) and on the reason the event's note implies; at
// the end a node's decision events and records must be as many. Consistency:
// each record's evidence must support its own reason under the scenario's
// parameters — a cache hit must cite at least one granting manager and an
// entry expiring within the revocation bound te (a stale-allow leak
// surfaces here as a record citing an expired-but-within-Te grant whose
// residual lifetime exceeds te), a quorum allow must cite C confirmations
// and a granted te within the bound, a quorum deny must cite enough denials
// to make C grants impossible, and a default-rule fallback must cite the
// attempts that exhausted R (Figure 4).
//
// It keeps, per node, what one stream has that the other has not yet
// matched, and the node's violations: they are reported node by node, the
// journals in their order, then the nodes that decided with no journal.
type auditOracle struct {
	oracleState
	te          time.Duration // max legal residual grant lifetime
	quorum      int           // the policy's check quorum C
	maxAttempts int           // the policy's attempt budget R

	nodes map[wire.NodeID]*auditNode // nil: no journals, nothing judged
	order []*auditNode               // journals in order, then nodes without one
}

// auditNode is one node's half-paired streams.
type auditNode struct {
	id          wire.NodeID
	journal     *flight.Recorder     // nil: the node has none
	events      queue[trace.Event]   // decision events awaiting their record
	records     queue[flight.Record] // decision records awaiting their event
	seen        uint64               // decision events so far
	first, last time.Time            // the first and last decision event's time
	viol        []Violation
}

func (n *auditNode) fail(at time.Time, format string, args ...any) {
	n.viol = append(n.viol, Violation{Oracle: OracleAudit, At: at, Detail: fmt.Sprintf(format, args...)})
}

func newAuditOracle(te time.Duration, quorum, maxAttempts int) *auditOracle {
	return &auditOracle{
		oracleState: oracleState{name: OracleAudit},
		te:          te,
		quorum:      quorum,
		maxAttempts: maxAttempts,
	}
}

// watchJournals puts the oracle on every journal's record stream. With no
// journals decision recording is off and the oracle judges nothing.
func (o *auditOracle) watchJournals(journals []*flight.Recorder) {
	for _, j := range journals {
		n := o.node(wire.NodeID(j.Node()))
		n.journal = j
		j.SetSink(auditSink{o, n})
	}
}

// node returns id's streams, adding them in order.
func (o *auditOracle) node(id wire.NodeID) *auditNode {
	if n := o.nodes[id]; n != nil {
		return n
	}
	if o.nodes == nil {
		o.nodes = make(map[wire.NodeID]*auditNode)
	}
	n := &auditNode{id: id}
	o.nodes[id] = n
	o.order = append(o.order, n)
	return n
}

// auditSink is the oracle's sink on one node's journal.
type auditSink struct {
	o *auditOracle
	n *auditNode
}

// Accept implements flight.Sink.
func (s auditSink) Accept(r flight.Record) {
	if r.Kind != flight.KindDecision {
		return
	}
	n := s.n
	if e, ok := n.events.pop(); ok {
		s.o.judgeRecord(n, &r, e)
		return
	}
	n.records.push(r)
}

// observe takes one event; decision events are paired with records.
func (o *auditOracle) observe(e *trace.Event) {
	if o.nodes == nil {
		return
	}
	if _, ok := reasonForEvent(e); !ok {
		return
	}
	n := o.node(e.Node)
	if n.seen == 0 {
		n.first = e.Time
	}
	n.seen++
	n.last = e.Time
	if n.journal == nil {
		return
	}
	if r, ok := n.records.pop(); ok {
		o.judgeRecord(n, r, e)
		return
	}
	n.events.push(*e)
}

// finish counts each node's decision events against the decision records
// its journal accepted, and gathers the violations.
func (o *auditOracle) finish() {
	for _, n := range o.order {
		switch {
		case n.journal == nil:
			o.obs++
			n.fail(n.first, "node %s made %d decisions but has no audit ring", n.id, n.seen)
		case n.seen != n.journal.Decisions():
			o.obs++
			n.fail(n.last, "node %s: %d decision events in trace but %d audit records accepted",
				n.id, n.seen, n.journal.Decisions())
		}
		o.viol = append(o.viol, n.viol...)
	}
}

// held counts the events and records the oracle keeps unpaired.
func (o *auditOracle) held() int {
	h := 0
	for _, n := range o.order {
		h += n.events.len() + n.records.len()
	}
	return h
}

// queue is a first-in, first-out queue whose storage is reused once it
// empties: the two streams of a node seldom differ by more than one.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

// pop returns the oldest item, good until the next push.
func (q *queue[T]) pop() (*T, bool) {
	if q.head == len(q.items) {
		return nil, false
	}
	v := &q.items[q.head]
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// reasonForEvent maps a decision event to the audit reason its type and
// word imply. ok is false for non-decision events.
func reasonForEvent(e *trace.Event) (r flight.Reason, ok bool) {
	switch e.Type {
	case trace.EventCacheHit:
		return flight.ReasonCacheHit, true
	case trace.EventAccessAllowed:
		return flight.ReasonQuorumAllow, true
	case trace.EventAccessDefault:
		if e.Word == trace.WordResolveFailed {
			return flight.ReasonResolveAllow, true
		}
		return flight.ReasonDefaultAllow, true
	case trace.EventAccessDenied:
		switch e.Word {
		case trace.WordRevoked:
			return flight.ReasonQuorumDeny, true
		case trace.WordUnreachable:
			return flight.ReasonUnreachableDeny, true
		case trace.WordResolveFailed:
			return flight.ReasonResolveDeny, true
		case trace.WordUnregistered:
			return flight.ReasonUnregisteredDeny, true
		}
		// Unknown word: still a decision; the reason check degrades to
		// outcome-class agreement.
		return 0, true
	}
	return 0, false
}

// judgeRecord checks one record against its paired trace event
// (completeness) and against its own evidence (consistency).
func (o *auditOracle) judgeRecord(n *auditNode, r *flight.Record, e *trace.Event) {
	o.obs++
	want, _ := reasonForEvent(e)
	if r.App != string(e.App) || r.User != string(e.User) || !r.T.Equal(e.Time) {
		n.fail(e.Time, "node %s: audit record (app=%s user=%s t=%s) does not match decision event (app=%s user=%s t=%s)",
			r.Node, r.App, r.User, r.T.Format("15:04:05.000"),
			e.App, e.User, e.Time.Format("15:04:05.000"))
		return
	}
	if want != 0 && r.Reason != want {
		n.fail(e.Time, "node %s: audit record says %s but trace event %s/%q implies %s",
			r.Node, r.Reason, e.Type, e.Note(), want)
		return
	}
	if r.Allowed != r.Reason.Allowed() {
		n.fail(e.Time, "node %s: reason %s implies allowed=%v but record says %v",
			r.Node, r.Reason, r.Reason.Allowed(), r.Allowed)
		return
	}
	// From the record, not quorum.New: malformed evidence is judged, not refused.
	sys := quorum.System{M: int(r.Set), C: o.quorum}
	switch r.Reason {
	case flight.ReasonCacheHit:
		if r.Granters < 1 {
			n.fail(e.Time, "node %s: cache-hit allow for %s/%s cites no granting manager", r.Node, r.App, r.User)
		}
		if !r.Expiry.IsZero() {
			residual := r.Expiry.Sub(r.T)
			if residual <= 0 {
				n.fail(e.Time, "node %s: cache-hit allow for %s/%s cites an entry already expired %s earlier",
					r.Node, r.App, r.User, -residual)
			} else if o.te > 0 && residual > o.te {
				n.fail(e.Time, "node %s: cache-hit allow for %s/%s cites a grant expiring %s after the decision, beyond the revocation bound te=%s (stale or inflated grant)",
					r.Node, r.App, r.User, residual, o.te)
			}
		}
	case flight.ReasonQuorumAllow:
		if o.quorum > 0 && !sys.Allows(quorum.First(r.Confirmations)) {
			n.fail(e.Time, "node %s: quorum allow for %s/%s cites %d confirmations, quorum is %d",
				r.Node, r.App, r.User, r.Confirmations, o.quorum)
		}
		if named := countNames(r.Managers); named != r.Confirmations {
			n.fail(e.Time, "node %s: quorum allow cites %d confirmations but names %d managers (%q)",
				r.Node, r.Confirmations, named, r.Managers)
		}
		if o.te > 0 && r.Expire > o.te {
			n.fail(e.Time, "node %s: quorum allow for %s/%s cites granted te=%s beyond the revocation bound te=%s (inflated grant)",
				r.Node, r.App, r.User, r.Expire, o.te)
		}
		if r.Attempts < 1 {
			n.fail(e.Time, "node %s: quorum allow with no query attempts", r.Node)
		}
	case flight.ReasonQuorumDeny:
		// Judged against M, not against how many were asked: one denial
		// of one asked proves nothing while C of the rest could grant.
		if r.Queried < 1 || int(r.Set) < r.Queried {
			n.fail(e.Time, "node %s: quorum deny for %s/%s queried %d of %d managers", r.Node, r.App, r.User, r.Queried, r.Set)
		} else if r.Denials > r.Queried || !sys.Denies(quorum.First(r.Denials)) {
			n.fail(e.Time, "node %s: quorum deny for %s/%s cites %d denials of %d managers (%d queried) — quorum %d was still reachable",
				r.Node, r.App, r.User, r.Denials, r.Set, r.Queried, o.quorum)
		}
	case flight.ReasonDefaultAllow, flight.ReasonUnreachableDeny, flight.ReasonResolveAllow:
		if o.maxAttempts > 0 && r.Attempts < o.maxAttempts {
			n.fail(e.Time, "node %s: %s for %s/%s after only %d of %d attempts",
				r.Node, r.Reason, r.App, r.User, r.Attempts, o.maxAttempts)
		}
	case flight.ReasonResolveDeny:
		// Attempts == 0 is legal only for the degenerate no-name-service
		// deny; a resolve-timeout deny must have exhausted R.
		if o.maxAttempts > 0 && r.Attempts != 0 && r.Attempts < o.maxAttempts {
			n.fail(e.Time, "node %s: resolve deny for %s/%s after only %d of %d attempts",
				r.Node, r.App, r.User, r.Attempts, o.maxAttempts)
		}
	}
}

// countNames counts comma-separated names ("m0,m2" → 2; "" → 0).
func countNames(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, ",") + 1
}
