package harness

import (
	"fmt"
	"iter"
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

// judgeLog runs the post-hoc oracles in one pass over the logs where they
// lie, so nothing may be recording while it runs: events is the full
// recorded trace (trace.Collector.All), rings one journal per node.
func (s oracles) judgeLog(events iter.Seq[*trace.Event], rings []*flight.Recorder) {
	seq, seqDone := s.seq.pass()
	aud, audDone := s.aud.pass(rings)
	for e := range events {
		seq(e)
		aud(e)
	}
	seqDone()
	audDone()
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

// sequencingOracle checks manager update ordering from the recorded trace
// (§3.3's FIFO per-origin dissemination): every manager applies each
// origin's updates in strictly increasing counter order, each origin issues
// strictly increasing counters, and no update reaches quorum before it was
// issued. Valid as long as the scenario never crash-recovers a manager
// (recovery resyncs state and may legitimately replay counters).
type sequencingOracle struct {
	oracleState
}

func newSequencingOracle() *sequencingOracle {
	return &sequencingOracle{oracleState: oracleState{name: OracleSequencing}}
}

// pass returns the oracle's pass over the trace: observe takes each event,
// oldest first, and done judges what they showed.
func (o *sequencingOracle) pass() (observe func(*trace.Event), done func()) {
	type applyKey struct {
		node   wire.NodeID
		origin wire.NodeID
	}
	lastApplied := make(map[applyKey]uint64)
	lastIssued := make(map[wire.NodeID]uint64)
	issuedAt, quorumAt := make(map[wire.UpdateSeq]time.Time), make(map[wire.UpdateSeq]time.Time)

	observe = func(e *trace.Event) {
		switch e.Type {
		case trace.EventUpdateIssued:
			o.obs++
			if prev, ok := lastIssued[e.Seq.Origin]; ok && e.Seq.Counter <= prev {
				o.fail(e.Time, "origin %s issued counter %d after %d", e.Seq.Origin, e.Seq.Counter, prev)
			}
			lastIssued[e.Seq.Origin] = e.Seq.Counter
			if _, ok := issuedAt[e.Seq]; !ok {
				issuedAt[e.Seq] = e.Time
			}
		case trace.EventUpdateApplied:
			o.obs++
			k := applyKey{node: e.Node, origin: e.Seq.Origin}
			if prev, ok := lastApplied[k]; ok && e.Seq.Counter <= prev {
				o.fail(e.Time, "manager %s applied %s/%d after %s/%d",
					e.Node, e.Seq.Origin, e.Seq.Counter, e.Seq.Origin, prev)
			}
			lastApplied[k] = e.Seq.Counter
		case trace.EventUpdateQuorum:
			if _, ok := quorumAt[e.Seq]; !ok {
				quorumAt[e.Seq] = e.Time
			}
		}
	}
	return observe, func() {
		for seq, qt := range quorumAt {
			o.obs++
			it, ok := issuedAt[seq]
			if !ok {
				o.fail(qt, "update %s/%d reached quorum but was never issued", seq.Origin, seq.Counter)
				continue
			}
			if qt.Before(it) {
				o.fail(qt, "update %s/%d reached quorum at %s before issue at %s",
					seq.Origin, seq.Counter, qt.Format("15:04:05.000"), it.Format("15:04:05.000"))
			}
		}
	}
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
// once. Completeness: every decision event in the trace has exactly one
// audit record — matched per host, in order, on (time, app, user) and on
// the reason the event's note implies; when a bounded ring dropped
// records, the retained suffix must still line up and the ring's accepted
// total must equal the trace's decision count. Consistency: each record's
// evidence must support its own reason under the scenario's parameters —
// a cache hit must cite at least one granting manager and an entry
// expiring within the revocation bound te (a stale-allow leak surfaces
// here as a record citing an expired-but-within-Te grant whose residual
// lifetime exceeds te), a quorum allow must cite C confirmations and a
// granted te within the bound, a quorum deny must cite enough denials to
// make C grants impossible, and a default-rule fallback must cite the
// attempts that exhausted R (Figure 4).
type auditOracle struct {
	oracleState
	te          time.Duration // max legal residual grant lifetime
	quorum      int           // the policy's check quorum C
	maxAttempts int           // the policy's attempt budget R
}

func newAuditOracle(te time.Duration, quorum, maxAttempts int) *auditOracle {
	return &auditOracle{
		oracleState: oracleState{name: OracleAudit},
		te:          te,
		quorum:      quorum,
		maxAttempts: maxAttempts,
	}
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

// pass is sequencingOracle.pass for rings, one journal per node (per-node
// drop accounting and record order are load-bearing). With no rings
// decision recording was off and the pass judges nothing.
func (o *auditOracle) pass(rings []*flight.Recorder) (observe func(*trace.Event), done func()) {
	if len(rings) == 0 {
		return func(*trace.Event) {}, func() {}
	}
	// A ring retains the newest suffix of its node's decisions: count it
	// first, so the pass keeps, by value, only the events it pairs with.
	type node struct {
		skip, seen uint64        // decision events before the suffix; seen
		last       time.Time     // the last one's time
		evs        []trace.Event // the suffix's events
	}
	byNode := make(map[wire.NodeID]*node, len(rings))
	for _, ring := range rings {
		kept := uint64(0)
		for r := range ring.All() {
			if r.Kind == flight.KindDecision {
				kept++
			}
		}
		byNode[wire.NodeID(ring.Node())] = &node{skip: ring.Decisions() - kept, evs: make([]trace.Event, 0, kept)}
	}
	var orphans []wire.NodeID // nodes with decisions but no ring, first seen first
	observe = func(e *trace.Event) {
		if _, ok := reasonForEvent(e); !ok {
			return
		}
		n := byNode[e.Node]
		if n == nil {
			n = &node{}
			byNode[e.Node] = n
			orphans = append(orphans, e.Node)
		}
		n.last = e.Time
		if n.seen++; n.seen > n.skip {
			n.evs = append(n.evs, *e)
		}
	}
	return observe, func() {
		for _, ring := range rings {
			n, decisions := byNode[wire.NodeID(ring.Node())], ring.Decisions()
			if n.seen == 0 && decisions == 0 {
				continue
			}
			// Exact count: the ring's accepted total survives drops.
			if decisions != n.seen {
				o.obs++
				o.fail(n.last, "node %s: %d decision events in trace but %d audit records accepted",
					ring.Node(), n.seen, decisions)
				continue
			}
			for r := range ring.All() {
				if r.Kind == flight.KindDecision {
					o.judgeRecord(r, &n.evs[0])
					n.evs = n.evs[1:]
				}
			}
		}
		for _, id := range orphans {
			o.obs++
			o.fail(byNode[id].evs[0].Time, "node %s made %d decisions but has no audit ring", id, byNode[id].seen)
		}
	}
}

// judgeRecord checks one record against its paired trace event
// (completeness) and against its own evidence (consistency).
func (o *auditOracle) judgeRecord(r *flight.Record, e *trace.Event) {
	o.obs++
	want, _ := reasonForEvent(e)
	if r.App != string(e.App) || r.User != string(e.User) || !r.T.Equal(e.Time) {
		o.fail(e.Time, "node %s: audit record (app=%s user=%s t=%s) does not match decision event (app=%s user=%s t=%s)",
			r.Node, r.App, r.User, r.T.Format("15:04:05.000"),
			e.App, e.User, e.Time.Format("15:04:05.000"))
		return
	}
	if want != 0 && r.Reason != want {
		o.fail(e.Time, "node %s: audit record says %s but trace event %s/%q implies %s",
			r.Node, r.Reason, e.Type, e.Note(), want)
		return
	}
	if r.Allowed != r.Reason.Allowed() {
		o.fail(e.Time, "node %s: reason %s implies allowed=%v but record says %v",
			r.Node, r.Reason, r.Reason.Allowed(), r.Allowed)
		return
	}
	// From the record, not quorum.New: malformed evidence is judged, not refused.
	sys := quorum.System{M: int(r.Set), C: o.quorum}
	switch r.Reason {
	case flight.ReasonCacheHit:
		if r.Granters < 1 {
			o.fail(e.Time, "node %s: cache-hit allow for %s/%s cites no granting manager", r.Node, r.App, r.User)
		}
		if !r.Expiry.IsZero() {
			residual := r.Expiry.Sub(r.T)
			if residual <= 0 {
				o.fail(e.Time, "node %s: cache-hit allow for %s/%s cites an entry already expired %s earlier",
					r.Node, r.App, r.User, -residual)
			} else if o.te > 0 && residual > o.te {
				o.fail(e.Time, "node %s: cache-hit allow for %s/%s cites a grant expiring %s after the decision, beyond the revocation bound te=%s (stale or inflated grant)",
					r.Node, r.App, r.User, residual, o.te)
			}
		}
	case flight.ReasonQuorumAllow:
		if o.quorum > 0 && !sys.Allows(quorum.First(r.Confirmations)) {
			o.fail(e.Time, "node %s: quorum allow for %s/%s cites %d confirmations, quorum is %d",
				r.Node, r.App, r.User, r.Confirmations, o.quorum)
		}
		if n := countNames(r.Managers); n != r.Confirmations {
			o.fail(e.Time, "node %s: quorum allow cites %d confirmations but names %d managers (%q)",
				r.Node, r.Confirmations, n, r.Managers)
		}
		if o.te > 0 && r.Expire > o.te {
			o.fail(e.Time, "node %s: quorum allow for %s/%s cites granted te=%s beyond the revocation bound te=%s (inflated grant)",
				r.Node, r.App, r.User, r.Expire, o.te)
		}
		if r.Attempts < 1 {
			o.fail(e.Time, "node %s: quorum allow with no query attempts", r.Node)
		}
	case flight.ReasonQuorumDeny:
		// Judged against M, not against how many were asked: one denial
		// of one asked proves nothing while C of the rest could grant.
		if r.Queried < 1 || int(r.Set) < r.Queried {
			o.fail(e.Time, "node %s: quorum deny for %s/%s queried %d of %d managers", r.Node, r.App, r.User, r.Queried, r.Set)
		} else if r.Denials > r.Queried || !sys.Denies(quorum.First(r.Denials)) {
			o.fail(e.Time, "node %s: quorum deny for %s/%s cites %d denials of %d managers (%d queried) — quorum %d was still reachable",
				r.Node, r.App, r.User, r.Denials, r.Set, r.Queried, o.quorum)
		}
	case flight.ReasonDefaultAllow, flight.ReasonUnreachableDeny, flight.ReasonResolveAllow:
		if o.maxAttempts > 0 && r.Attempts < o.maxAttempts {
			o.fail(e.Time, "node %s: %s for %s/%s after only %d of %d attempts",
				r.Node, r.Reason, r.App, r.User, r.Attempts, o.maxAttempts)
		}
	case flight.ReasonResolveDeny:
		// Attempts == 0 is legal only for the degenerate no-name-service
		// deny; a resolve-timeout deny must have exhausted R.
		if o.maxAttempts > 0 && r.Attempts != 0 && r.Attempts < o.maxAttempts {
			o.fail(e.Time, "node %s: resolve deny for %s/%s after only %d of %d attempts",
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
