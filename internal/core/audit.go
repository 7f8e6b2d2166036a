package core

// Decision-provenance emission. Audit records are produced at the same
// call sites (and under the same lock) as the HostStats fields and
// telemetry counters they explain, so the three views cannot drift;
// audit_test.go pins the equalities against scripted scenarios. Every
// hook is nil-guarded: an uninstrumented node pays one branch.

import (
	"math/bits"
	"sort"
	"strings"

	"wanac/internal/audit"
	"wanac/internal/wire"
)

// SetAudit installs (or, with nil, removes) the host's audit recorder.
// Install before traffic flows: records are emitted for decisions made
// while the recorder is set.
func (h *Host) SetAudit(rec *audit.Recorder) {
	h.publish(func(v *hostView) { v.aud = rec })
}

// SetAudit installs (or, with nil, removes) the manager's audit recorder;
// the manager records one response-kind entry per query verdict.
func (m *Manager) SetAudit(rec *audit.Recorder) {
	m.mu.Lock()
	m.aud = rec
	m.mu.Unlock()
}

// auditFinish copies a finishing check's evidence into an audit record
// before finish recycles the struct. Called with h.mu held, only when a
// recorder is installed. The quorum-allow path allocates (sorting the
// granting set into a string) — that path already allocates for the wire
// exchange; the budget-pinned cache-hit path never reaches here.
func (h *Host) auditFinish(v *hostView, c *check, d Decision, reason audit.Reason) {
	rec := audit.Record{
		Kind:     audit.KindDecision,
		T:        h.now,
		Trace:    c.trace,
		App:      string(c.key.app),
		User:     string(c.key.user),
		Right:    c.key.right.String(),
		Reason:   reason,
		Allowed:  d.Allowed,
		Attempts: c.attempts,
		Queried:  bits.OnesCount64(c.asked),
		Denials:  c.denials,
		Backoffs: c.backoffs,
		Frozen:   c.frozen,
	}
	a := v.apps[c.key.app]
	if a != nil {
		rec.Quorum = a.policy.CheckQuorum
		rec.Set = uint8(len(a.managers)) // at most maxManagers
	}
	if reason == audit.ReasonQuorumAllow { // only from onResponse, which found the app
		rec.Confirmations = len(c.grantedBy)
		rec.Managers = a.setName(c.grantedBy)
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
func (m *Manager) auditResponse(ma *mgrApp, from wire.NodeID, q wire.Query, reason audit.Reason) {
	rec := audit.Record{
		Kind:   audit.KindResponse,
		T:      m.now,
		Trace:  q.Trace,
		App:    string(q.App),
		User:   string(q.User),
		Right:  q.Right.String(),
		Reason: reason,
		Peer:   string(from),
	}
	if ma != nil {
		if reason == audit.ReasonQueryGranted {
			rec.Expire = ma.expire
		}
		if op, ok := ma.lastOp[grantKey{user: q.User, right: q.Right}]; ok {
			rec.Origin = string(op.Seq.Origin)
			rec.Counter = op.Seq.Counter
		}
	}
	m.aud.Record(rec)
}

// joinNodeSet renders a node set sorted and comma-joined ("m0,m2").
func joinNodeSet(set map[wire.NodeID]struct{}) string {
	names := make([]string, 0, len(set))
	for id := range set {
		names = append(names, string(id))
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
