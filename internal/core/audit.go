package core

// Decision-provenance emission. Audit records are produced at the same
// call sites (and under the same lock) as the counts they explain, which
// HostStats and the telemetry counters read, so the views cannot drift;
// audit_test.go pins the equalities against scripted scenarios. Every
// hook is nil-guarded: an uninstrumented node pays one branch.

import (
	"sort"
	"strings"

	"wanac/internal/flight"
	"wanac/internal/quorum"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// decisionEvent is the trace event a reason is told by: its type, its word,
// and whether its number is the check's attempts.
type decisionEvent struct {
	typ      trace.EventType
	word     trace.Word
	attempts bool
}

// decisionEvents is the one place a host decision or a manager verdict names
// its event: Host.finish and Manager.served emit what their reason indexes
// here. A cache hit's event is built on its own path (Host.cacheHit), and a
// shed query's (Manager.shedQuery) carries its Retry-After.
var decisionEvents = [flight.NumReasons]decisionEvent{
	flight.ReasonQuorumAllow:      {typ: trace.EventAccessAllowed, word: trace.WordQuorum},
	flight.ReasonDefaultAllow:     {typ: trace.EventAccessDefault, attempts: true},
	flight.ReasonResolveAllow:     {typ: trace.EventAccessDefault, word: trace.WordResolveFailed},
	flight.ReasonQuorumDeny:       {typ: trace.EventAccessDenied, word: trace.WordRevoked},
	flight.ReasonUnreachableDeny:  {typ: trace.EventAccessDenied, word: trace.WordUnreachable},
	flight.ReasonResolveDeny:      {typ: trace.EventAccessDenied, word: trace.WordResolveFailed},
	flight.ReasonUnregisteredDeny: {typ: trace.EventAccessDenied, word: trace.WordUnregistered},
	flight.ReasonQueryGranted:     {typ: trace.EventQueryServed, word: trace.WordGranted},
	flight.ReasonQueryDenied:      {typ: trace.EventQueryServed, word: trace.WordDenied},
	flight.ReasonQueryFrozen:      {typ: trace.EventQueryServed, word: trace.WordFrozen},
	flight.ReasonQueryUnknownApp:  {typ: trace.EventQueryServed, word: trace.WordUnknownApp},
}

// SetAudit installs (or, with nil, removes) the journal the host records
// its decisions in. Install before traffic flows: records are emitted for
// decisions made while the journal is set.
func (h *Host) SetAudit(rec *flight.Recorder) {
	h.publish(func(v *hostView) { v.aud = rec })
}

// SetAudit installs (or, with nil, removes) the journal the manager records
// one response-kind entry per query verdict in.
func (m *Manager) SetAudit(rec *flight.Recorder) {
	m.mu.Lock()
	m.aud = rec
	m.mu.Unlock()
}

// auditFinish copies a finishing check's evidence into an audit record
// before finish recycles the struct. Called with h.mu held, only when a
// recorder is installed. The quorum-allow path allocates (sorting the
// granting set into a string) — that path already allocates for the wire
// exchange; the budget-pinned cache-hit path never reaches here.
func (h *Host) auditFinish(v *hostView, c *check, d Decision, reason flight.Reason) {
	rec := flight.Record{
		Kind:     flight.KindDecision,
		T:        h.now,
		Trace:    c.trace,
		App:      string(c.key.app),
		User:     string(c.key.user),
		Right:    c.key.right.String(),
		Reason:   reason,
		Allowed:  d.Allowed,
		Attempts: c.attempts,
		Queried:  c.round.Asked.Len(),
		Denials:  c.round.Denied.Len(),
		Backoffs: c.backoffs,
		Frozen:   c.frozen,
	}
	a := v.apps[c.key.app]
	if a != nil {
		rec.Quorum = a.policy.CheckQuorum
		rec.Set = uint8(len(a.managers)) // at most quorum.MaxManagers
	}
	if reason == flight.ReasonQuorumAllow { // only from onResponse, which found the app
		rec.Confirmations = c.round.Granted.Len()
		rec.Managers = a.setName(c.round.Granted)
		rec.Expire = c.minExpire
		if c.minExpire > 0 {
			rec.Expiry = c.sentAt.Add(c.minExpire)
		}
	}
	v.aud.Record(rec)
}

// auditResponse records a manager's query verdict, citing the seq of the
// last ACL operation the verdict rests on (zero when no operation ever
// touched the right). Called with m.mu held, only when a recorder is
// installed. ma is nil for unknown-app verdicts.
func (m *Manager) auditResponse(ma *mgrApp, from wire.NodeID, q *wire.Query, reason flight.Reason) {
	rec := flight.Record{
		Kind:   flight.KindResponse,
		T:      m.now,
		Trace:  q.Trace,
		App:    string(q.App),
		User:   string(q.User),
		Right:  q.Right.String(),
		Reason: reason,
		Peer:   string(from),
	}
	if ma != nil {
		if reason == flight.ReasonQueryGranted {
			rec.Expire = ma.expire
		}
		if op, ok := ma.lastOp[grantKey{user: q.User, right: q.Right}]; ok {
			rec.Origin = string(op.Seq.Origin)
			rec.Counter = op.Seq.Counter
		}
	}
	m.aud.Record(rec)
}

// joinNodeSet renders the nodes at the positions set in set, sorted and
// comma-joined ("m0,m2").
func joinNodeSet(nodes []wire.NodeID, set quorum.Set) string {
	names := make([]string, 0, set.Len())
	for i, id := range nodes {
		if set.Has(i) {
			names = append(names, string(id))
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
