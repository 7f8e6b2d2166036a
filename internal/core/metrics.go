package core

import (
	"time"

	"wanac/internal/audit"
)

// Operational metrics. These are cheap monotonic counters maintained inline
// by the nodes (unlike the trace.Collector, which retains full events);
// production deployments export them through internal/telemetry (see
// telemetry.go), which mirrors every counter here at the same call sites.

// HostStats is a snapshot of a host's access-control activity.
type HostStats struct {
	// Checks is the number of completed access decisions.
	Checks uint64
	// CacheHits counts decisions served from ACL_cache.
	CacheHits uint64
	// Allowed counts quorum-confirmed grants (excluding cache hits and
	// default allows).
	Allowed uint64
	// DefaultAllowed counts Figure 4 default allows.
	DefaultAllowed uint64
	// Denied counts denials (explicit or unreachable).
	Denied uint64
	// RevokeNotices counts revocation notices that flushed a cached entry.
	RevokeNotices uint64
	// QueryRounds counts query rounds started (each fans out to C or all
	// managers).
	QueryRounds uint64
	// QueryTimeouts counts query rounds that timed out without a decision.
	QueryTimeouts uint64
	// BusyReplies counts manager load-shed (Busy) replies received for
	// in-flight rounds.
	BusyReplies uint64
	// Backoffs counts check rounds deferred by admission backoff (after a
	// Busy reply or inside an app's busy window).
	Backoffs uint64
	// CacheLen is the current number of cached entries.
	CacheLen int
}

// Stats returns a snapshot of the host's counters. The cache length is
// read under the same lock as the counters, so the snapshot is
// internally consistent (e.g. CacheLen can never report an entry whose
// caching grant is not yet counted).
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	st := h.stats
	st.CacheLen = h.cache.Len()
	h.mu.Unlock()
	// Cache hits are decided without h.mu and counted atomically.
	hits := h.hits.Load()
	st.Checks += hits
	st.CacheHits = hits
	return st
}

// ManagerStats is a snapshot of a manager's activity.
type ManagerStats struct {
	// QueriesServed counts access-right queries answered (grant or deny).
	QueriesServed uint64
	// QueriesFrozen counts queries declined while frozen or syncing.
	QueriesFrozen uint64
	// QueriesShed counts queries rejected by admission control with a Busy
	// reply.
	QueriesShed uint64
	// TeWidenings counts adaptive-Te controller intervals that widened the
	// effective revocation bound.
	TeWidenings uint64
	// UpdatesIssued counts locally issued operations.
	UpdatesIssued uint64
	// UpdatesApplied counts peer operations applied (including buffered and
	// forced ones when they take effect).
	UpdatesApplied uint64
	// UpdatesStale counts peer operations discarded by last-writer-wins.
	UpdatesStale uint64
	// QuorumsReached counts own updates whose update quorum completed.
	QuorumsReached uint64
	// OutstandingUpdates is the current number of updates still being
	// retransmitted to some peer.
	OutstandingUpdates int
	// PendingNotices is the current number of unacknowledged revocation
	// notices.
	PendingNotices int
	// FrozenApps is the current number of applications in the freeze state
	// (§3.3) on this manager.
	FrozenApps int
	// SyncingApps is the current number of applications still recovering
	// state on this manager.
	SyncingApps int
	// EffectiveTe is the largest current effective revocation bound across
	// this manager's applications (equals the configured Te when the
	// adaptive controller is off or idle).
	EffectiveTe time.Duration
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.OutstandingUpdates = len(m.outstanding)
	st.PendingNotices = len(m.notices)
	for _, ma := range m.apps {
		if ma.frozen {
			st.FrozenApps++
		}
		if ma.syncing {
			st.SyncingApps++
		}
		if te := ma.effectiveTe(); te > st.EffectiveTe {
			st.EffectiveTe = te
		}
	}
	return st
}

// recordDecision tallies a check that finished under h.mu — every outcome
// but a cache hit, which cacheHit counts itself. born is when the check
// began and now when it finished (for the latency histograms); a zero born
// records no latency. reason refines the outcome with the decision's
// provenance (wanac_host_check_reasons_total): summed over the reasons of
// one outcome it equals that outcome's counter, an equality audit_test.go
// pins.
func (h *Host) recordDecision(d Decision, born, now time.Time, reason audit.Reason) {
	h.stats.Checks++
	idx := outcomeIndex(d)
	switch idx {
	case outcomeDefault:
		h.stats.DefaultAllowed++
	case outcomeAllowed:
		h.stats.Allowed++
	default:
		h.stats.Denied++
	}
	if t := h.tel(); t != nil {
		t.checks[idx].Inc()
		if rc := t.reasons[reason]; rc != nil {
			rc.Inc()
		}
		observeSince(t.latency[idx], born, now)
	}
}
