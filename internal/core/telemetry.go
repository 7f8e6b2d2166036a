package core

// Telemetry instrumentation for the protocol nodes. Every counter family
// is derived from the node's own counts (hostCounts, managerCounts in
// metrics.go) — the atomics Stats reads — so a scrape and a Stats snapshot
// cannot disagree, and an event costs one read-modify-write however many
// families it moves. Counter families are shared across nodes registered
// on one registry — each node is one more source of the same counter, so
// they aggregate like process-wide Prometheus counters — while
// point-in-time state (cache size, freeze/sync state, outstanding work) is
// exported as per-node labeled gauges. Only the latency histograms are
// attached to the node.
//
// All handles are resolved once at instrument time; the per-operation
// hot path touches only atomics and adds no allocations (alloc_test.go
// pins the cached-check budget with telemetry enabled).

import (
	"time"

	"wanac/internal/flight"
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

// outcomeOf is the outcome a decision reason implies.
func outcomeOf(r flight.Reason) int {
	switch {
	case r == flight.ReasonCacheHit:
		return outcomeCacheHit
	case r.Default():
		return outcomeDefault
	case r.Allowed():
		return outcomeAllowed
	default:
		return outcomeDenied
	}
}

// reasonCounters resolves the per-reason decision counter family in reg,
// one handle per decision reason (non-decision slots stay nil). Both
// InstrumentHost and post-run readers resolve through here, so they
// always see the same handles.
func reasonCounters(reg *telemetry.Registry) [flight.NumReasons]*telemetry.Counter {
	vec := reg.CounterVec("wanac_host_check_reasons_total",
		"Completed access decisions by audit reason (refines wanac_host_checks_total with per-decision provenance).", "reason")
	var out [flight.NumReasons]*telemetry.Counter
	for _, r := range flight.DecisionReasons {
		out[r] = vec.With(r.String())
	}
	return out
}

// ReasonCounts reads the per-reason decision counters accumulated in reg,
// summed across every host instrumented there. The counters read the
// hosts' decision counts, so — unlike the bounded journals — they are
// exact even when rings dropped records. All-zero when no host was
// instrumented.
func ReasonCounts(reg *telemetry.Registry) map[flight.Reason]uint64 {
	out := make(map[flight.Reason]uint64, len(flight.DecisionReasons))
	for r, c := range reasonCounters(reg) {
		if c != nil {
			out[flight.Reason(r)] = c.Value()
		}
	}
	return out
}

// InstrumentHost wires h into reg: check counters by outcome and by reason
// and the round, timeout, revocation, busy and backoff counters, all
// derived from h's counts; latency histograms by outcome (shared families,
// aggregated across hosts); and per-node cache gauges. It installs aud as
// the journal taking decisions when it is non-nil (nil leaves the current
// one in place).
//
// Instrument a host once, before it serves: the counters read its lifetime
// counts, so a second call would count every check twice, while a latency
// is observed only for checks decided after the call.
func InstrumentHost(reg *telemetry.Registry, aud *flight.Recorder, h *Host) {
	c := &h.counts
	checks := reg.CounterVec("wanac_host_checks_total",
		"Completed access decisions by outcome.", "outcome")
	reasons := reasonCounters(reg)
	for _, r := range flight.DecisionReasons {
		checks.With(outcomeNames[outcomeOf(r)]).Derive(&c.decided[r])
		reasons[r].Derive(&c.decided[r])
	}
	reg.Counter("wanac_host_query_rounds_total",
		"Query rounds started (each fans out to C or all managers).").Derive(&c.queryRounds)
	reg.Counter("wanac_host_query_timeouts_total",
		"Query rounds that timed out without reaching a decision.").Derive(&c.queryTimeouts)
	reg.Counter("wanac_host_revoke_flushes_total",
		"Revocation notices that flushed a cached entry.").Derive(&c.revokeNotices)
	reg.Counter("wanac_host_busy_replies_total",
		"Manager load-shed (Busy) replies received for in-flight rounds.").Derive(&c.busyReplies)
	reg.Counter("wanac_host_backoffs_total",
		"Check rounds deferred by admission backoff.").Derive(&c.backoffs)
	latency := reg.HistogramVec("wanac_host_check_latency_seconds",
		"Latency from Check to decision, by outcome.", telemetry.DefBuckets, "outcome")
	var lat [outcomeCount]*telemetry.Histogram
	for i, name := range outcomeNames {
		lat[i] = latency.With(name)
	}
	// A hit takes no time on the host's clock: each one is an observation
	// of 0, derived from its count rather than observed.
	lat[outcomeCacheHit].DeriveZeros(&c.decided[flight.ReasonCacheHit])
	h.mu.Lock()
	h.latency = lat
	h.mu.Unlock()
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
}

// InstrumentManager wires m into reg: query and update counters derived
// from m's counts, quorum and revocation-propagation histograms (shared
// families), and per-node gauges for outstanding work and freeze/sync
// state. It installs aud as the journal taking verdicts when it is non-nil
// (nil leaves the current one in place). Like InstrumentHost, call it once,
// before the manager serves.
func InstrumentManager(reg *telemetry.Registry, aud *flight.Recorder, m *Manager) {
	c := &m.counts
	queries := reg.CounterVec("wanac_manager_queries_total",
		"Access-right queries by result: served (grant/deny), frozen (declined), or shed (rejected by admission control).", "result")
	queries.With("served").Derive(&c.verdicts[flight.ReasonQueryGranted])
	queries.With("served").Derive(&c.verdicts[flight.ReasonQueryDenied])
	queries.With("frozen").Derive(&c.verdicts[flight.ReasonQueryFrozen])
	queries.With("shed").Derive(&c.verdicts[flight.ReasonQueryShed])
	updates := reg.CounterVec("wanac_manager_updates_total",
		"ACL update operations by disposition: issued locally, applied from peers, or stale (discarded by last-writer-wins).", "disposition")
	updates.With("issued").Derive(&c.updatesIssued)
	updates.With("applied").Derive(&c.updatesApplied)
	updates.With("stale").Derive(&c.updatesStale)
	reg.Counter("wanac_manager_update_quorums_total",
		"Locally issued updates whose update quorum (M-C+1 acks) completed.").Derive(&c.quorumsReached)
	reg.Counter("wanac_manager_te_widenings_total",
		"Adaptive-Te controller intervals that widened the effective revocation bound.").Derive(&c.teWidenings)
	quorumLatency := reg.Histogram("wanac_manager_update_quorum_latency_seconds",
		"Latency from issuing an update to observing its update quorum.", telemetry.DefBuckets)
	revocationLag := reg.Histogram("wanac_manager_revocation_propagation_seconds",
		"Delay from forwarding a revocation notice to the host's acknowledgment.", telemetry.DefBuckets)
	m.mu.Lock()
	m.quorumLatency, m.revocationLag = quorumLatency, revocationLag
	m.mu.Unlock()
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
}

// observeSince records now-start into h when the node is instrumented (h
// is non-nil) and the start time is known. Clock skew can make the
// difference negative on a live node; clamp to zero rather than corrupting
// the histogram.
func observeSince(h *telemetry.Histogram, start, now time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	d := now.Sub(start)
	if d < 0 {
		d = 0
	}
	h.Observe(d.Seconds())
}
