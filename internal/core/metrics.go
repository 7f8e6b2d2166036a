package core

import (
	"sync/atomic"
	"time"

	"wanac/internal/flight"
)

// Operational metrics. A node keeps one atomic per count (hostCounts,
// managerCounts); Stats builds its snapshot from them, and the exported
// counter families are derived from the same atomics (see telemetry.go), so
// the two views read one number and cannot disagree.

// hostCounts is a host's counters. decided counts completed checks by
// decision reason; a check's outcome is a function of its reason
// (outcomeOf), so the outcome counts are sums over it. A cache hit bumps
// decided[ReasonCacheHit] without Host.mu; the rest move under it.
type hostCounts struct {
	decided       [flight.NumReasons]atomic.Uint64
	revokeNotices atomic.Uint64
	queryRounds   atomic.Uint64
	queryTimeouts atomic.Uint64
	busyReplies   atomic.Uint64
	backoffs      atomic.Uint64
}

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
	defer h.mu.Unlock()
	c := &h.counts
	var by [outcomeCount]uint64
	for _, r := range flight.DecisionReasons {
		by[outcomeOf(r)] += c.decided[r].Load()
	}
	return HostStats{
		Checks:         by[outcomeCacheHit] + by[outcomeAllowed] + by[outcomeDefault] + by[outcomeDenied],
		CacheHits:      by[outcomeCacheHit],
		Allowed:        by[outcomeAllowed],
		DefaultAllowed: by[outcomeDefault],
		Denied:         by[outcomeDenied],
		RevokeNotices:  c.revokeNotices.Load(),
		QueryRounds:    c.queryRounds.Load(),
		QueryTimeouts:  c.queryTimeouts.Load(),
		BusyReplies:    c.busyReplies.Load(),
		Backoffs:       c.backoffs.Load(),
		CacheLen:       h.cache.Len(),
	}
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

// managerCounts is a manager's counters. verdicts counts answered queries
// by response reason; the rest count one ManagerStats field each. All move
// under Manager.mu.
type managerCounts struct {
	verdicts       [flight.NumReasons]atomic.Uint64
	teWidenings    atomic.Uint64
	updatesIssued  atomic.Uint64
	updatesApplied atomic.Uint64
	updatesStale   atomic.Uint64
	quorumsReached atomic.Uint64
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	st := ManagerStats{
		QueriesServed:  c.verdicts[flight.ReasonQueryGranted].Load() + c.verdicts[flight.ReasonQueryDenied].Load(),
		QueriesFrozen:  c.verdicts[flight.ReasonQueryFrozen].Load(),
		QueriesShed:    c.verdicts[flight.ReasonQueryShed].Load(),
		TeWidenings:    c.teWidenings.Load(),
		UpdatesIssued:  c.updatesIssued.Load(),
		UpdatesApplied: c.updatesApplied.Load(),
		UpdatesStale:   c.updatesStale.Load(),
		QuorumsReached: c.quorumsReached.Load(),
	}
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
// records no latency.
func (h *Host) recordDecision(born, now time.Time, reason flight.Reason) {
	h.counts.decided[reason].Add(1)
	observeSince(h.latency[outcomeOf(reason)], born, now)
}
