package core

// Telemetry instrumentation for the protocol nodes. The counters here
// are incremented at the same call sites as the HostStats/ManagerStats
// fields they mirror, so the two views can never drift (telemetry_test.go
// asserts exactness against scripted scenarios); the ones a cache hit moves
// are not incremented at all but derived from HostTelemetry.hits, the one
// atomic a hit bumps. Counter families are shared across nodes registered
// on one registry — they aggregate, like process-wide Prometheus counters —
// while point-in-time state (cache size, freeze/sync state, outstanding
// work) is exported as per-node labeled gauges.
//
// All handles are resolved once at instrument time; the per-operation
// hot path touches only atomics and adds no allocations (alloc_test.go
// pins the cached-check budget with telemetry enabled).

import (
	"sync/atomic"
	"time"

	"wanac/internal/audit"
	"wanac/internal/telemetry"
)

// Check outcomes, in a fixed order so hot paths index arrays instead of
// formatting label values.
const (
	outcomeCacheHit = iota
	outcomeAllowed
	outcomeDefault
	outcomeDenied
	outcomeCount
)

var outcomeNames = [outcomeCount]string{"cache_hit", "allowed", "default_allowed", "denied"}

func outcomeIndex(d Decision) int {
	switch {
	case d.CacheHit:
		return outcomeCacheHit
	case d.DefaultAllowed:
		return outcomeDefault
	case d.Allowed:
		return outcomeAllowed
	default:
		return outcomeDenied
	}
}

// HostTelemetry holds a host's pre-resolved metric handles. Install with
// Host.SetTelemetry or InstrumentHost.
type HostTelemetry struct {
	// hits counts the cache hits decided while this value was the host's
	// telemetry. It is all a hit bumps: checks[cache_hit], reasons[cache_hit]
	// and the count and zero bucket of latency[cache_hit] — a hit takes no
	// time on the host's clock — are derived from it whenever they are read.
	hits   atomic.Uint64
	checks [outcomeCount]*telemetry.Counter
	// reasons refines checks by audit provenance, indexed by
	// audit.Reason (decision reasons only; other slots stay nil).
	reasons     [audit.NumReasons]*telemetry.Counter
	latency     [outcomeCount]*telemetry.Histogram
	rounds      *telemetry.Counter
	timeouts    *telemetry.Counter
	revokes     *telemetry.Counter
	busyReplies *telemetry.Counter
	backoffs    *telemetry.Counter
}

// NewHostTelemetry resolves the host metric families in reg.
func NewHostTelemetry(reg *telemetry.Registry) *HostTelemetry {
	checks := reg.CounterVec("wanac_host_checks_total",
		"Completed access decisions by outcome.", "outcome")
	latency := reg.HistogramVec("wanac_host_check_latency_seconds",
		"Latency from Check to decision, by outcome.", telemetry.DefBuckets, "outcome")
	t := &HostTelemetry{}
	for i, name := range outcomeNames {
		t.checks[i] = checks.With(name)
		t.latency[i] = latency.With(name)
	}
	for r, c := range reasonCounters(reg) {
		t.reasons[r] = c
	}
	t.checks[outcomeCacheHit].Derive(&t.hits)
	t.reasons[audit.ReasonCacheHit].Derive(&t.hits)
	t.latency[outcomeCacheHit].DeriveZeros(&t.hits)
	t.rounds = reg.Counter("wanac_host_query_rounds_total",
		"Query rounds started (each fans out to C or all managers).")
	t.timeouts = reg.Counter("wanac_host_query_timeouts_total",
		"Query rounds that timed out without reaching a decision.")
	t.revokes = reg.Counter("wanac_host_revoke_flushes_total",
		"Revocation notices that flushed a cached entry.")
	t.busyReplies = reg.Counter("wanac_host_busy_replies_total",
		"Manager load-shed (Busy) replies received for in-flight rounds.")
	t.backoffs = reg.Counter("wanac_host_backoffs_total",
		"Check rounds deferred by admission backoff.")
	return t
}

// reasonCounters resolves the per-reason decision counter family in reg,
// one handle per decision reason (non-decision slots stay nil). Both the
// hot-path telemetry and post-run readers resolve through here, so they
// always see the same handles.
func reasonCounters(reg *telemetry.Registry) [audit.NumReasons]*telemetry.Counter {
	vec := reg.CounterVec("wanac_host_check_reasons_total",
		"Completed access decisions by audit reason (refines wanac_host_checks_total with per-decision provenance).", "reason")
	var out [audit.NumReasons]*telemetry.Counter
	for _, r := range audit.DecisionReasons {
		out[r] = vec.With(r.String())
	}
	return out
}

// ReasonCounts reads the per-reason decision counters accumulated in reg,
// summed across every host instrumented there. The counters are bumped at
// decision time, so — unlike the bounded audit rings — the counts are exact
// even when rings dropped records. All-zero when no host was instrumented.
func ReasonCounts(reg *telemetry.Registry) map[audit.Reason]uint64 {
	out := make(map[audit.Reason]uint64, len(audit.DecisionReasons))
	for r, c := range reasonCounters(reg) {
		if c != nil {
			out[audit.Reason(r)] = c.Value()
		}
	}
	return out
}

// SetTelemetry installs (or, with nil, removes) the host's telemetry
// sink. Safe to call at any time; checks in flight keep the trace IDs
// they were assigned.
func (h *Host) SetTelemetry(t *HostTelemetry) {
	h.publish(func(v *hostView) { v.tel = t })
}

// InstrumentHost wires h into reg: outcome-labeled check counters and
// latency histograms (shared families, aggregated across hosts) plus
// per-node cache gauges, and installs aud as the audit recorder when it is
// non-nil (nil leaves the current one in place). Returns the installed
// handles.
func InstrumentHost(reg *telemetry.Registry, aud *audit.Recorder, h *Host) *HostTelemetry {
	t := NewHostTelemetry(reg)
	h.SetTelemetry(t)
	if aud != nil {
		h.SetAudit(aud)
	}
	node := string(h.ID())
	reg.GaugeVec("wanac_host_cache_entries",
		"Current ACL cache entries.", "node").
		WithFunc(func() float64 { return float64(h.Stats().CacheLen) }, node)
	reg.GaugeVec("wanac_host_cache_hit_ratio",
		"Fraction of completed checks served from cache.", "node").
		WithFunc(func() float64 {
			st := h.Stats()
			if st.Checks == 0 {
				return 0
			}
			return float64(st.CacheHits) / float64(st.Checks)
		}, node)
	return t
}

// ManagerTelemetry holds a manager's pre-resolved metric handles.
type ManagerTelemetry struct {
	queriesServed  *telemetry.Counter
	queriesFrozen  *telemetry.Counter
	queriesShed    *telemetry.Counter
	teWidenings    *telemetry.Counter
	updatesIssued  *telemetry.Counter
	updatesApplied *telemetry.Counter
	updatesStale   *telemetry.Counter
	quorums        *telemetry.Counter
	quorumLatency  *telemetry.Histogram
	revocationLag  *telemetry.Histogram
}

// NewManagerTelemetry resolves the manager metric families in reg.
func NewManagerTelemetry(reg *telemetry.Registry) *ManagerTelemetry {
	queries := reg.CounterVec("wanac_manager_queries_total",
		"Access-right queries by result: served (grant/deny), frozen (declined), or shed (rejected by admission control).", "result")
	updates := reg.CounterVec("wanac_manager_updates_total",
		"ACL update operations by disposition: issued locally, applied from peers, or stale (discarded by last-writer-wins).", "disposition")
	t := &ManagerTelemetry{
		queriesServed:  queries.With("served"),
		queriesFrozen:  queries.With("frozen"),
		queriesShed:    queries.With("shed"),
		updatesIssued:  updates.With("issued"),
		updatesApplied: updates.With("applied"),
		updatesStale:   updates.With("stale"),
	}
	t.quorums = reg.Counter("wanac_manager_update_quorums_total",
		"Locally issued updates whose update quorum (M-C+1 acks) completed.")
	t.quorumLatency = reg.Histogram("wanac_manager_update_quorum_latency_seconds",
		"Latency from issuing an update to observing its update quorum.", telemetry.DefBuckets)
	t.revocationLag = reg.Histogram("wanac_manager_revocation_propagation_seconds",
		"Delay from forwarding a revocation notice to the host's acknowledgment.", telemetry.DefBuckets)
	t.teWidenings = reg.Counter("wanac_manager_te_widenings_total",
		"Adaptive-Te controller intervals that widened the effective revocation bound.")
	return t
}

// SetTelemetry installs (or, with nil, removes) the manager's telemetry
// sink.
func (m *Manager) SetTelemetry(t *ManagerTelemetry) {
	m.mu.Lock()
	m.tel = t
	m.mu.Unlock()
}

// InstrumentManager wires m into reg: query/update counters and quorum
// and revocation-propagation histograms (shared families) plus per-node
// gauges for outstanding work and freeze/sync state, and installs aud as
// the audit recorder when it is non-nil (nil leaves the current one in
// place).
func InstrumentManager(reg *telemetry.Registry, aud *audit.Recorder, m *Manager) *ManagerTelemetry {
	t := NewManagerTelemetry(reg)
	m.SetTelemetry(t)
	if aud != nil {
		m.SetAudit(aud)
	}
	node := string(m.ID())
	gauge := func(name, help string, get func(ManagerStats) float64) {
		reg.GaugeVec(name, help, "node").
			WithFunc(func() float64 { return get(m.Stats()) }, node)
	}
	gauge("wanac_manager_outstanding_updates",
		"Updates still being retransmitted to some peer.",
		func(st ManagerStats) float64 { return float64(st.OutstandingUpdates) })
	gauge("wanac_manager_pending_notices",
		"Unacknowledged revocation notices.",
		func(st ManagerStats) float64 { return float64(st.PendingNotices) })
	gauge("wanac_manager_frozen_apps",
		"Applications currently frozen on this manager (para 3.3 freeze strategy).",
		func(st ManagerStats) float64 { return float64(st.FrozenApps) })
	gauge("wanac_manager_syncing_apps",
		"Applications currently recovering state on this manager.",
		func(st ManagerStats) float64 { return float64(st.SyncingApps) })
	gauge("wanac_manager_effective_te_seconds",
		"Current effective revocation bound Te (widens under overload, capped at AdaptiveTe.Max).",
		func(st ManagerStats) float64 { return st.EffectiveTe.Seconds() })
	return t
}

// observeSince records now-start into h when telemetry is active and the
// start time is known. Clock skew can make the difference negative on a
// live node; clamp to zero rather than corrupting the histogram.
func observeSince(h *telemetry.Histogram, start, now time.Time) {
	if start.IsZero() {
		return
	}
	d := now.Sub(start)
	if d < 0 {
		d = 0
	}
	h.Observe(d.Seconds())
}
