package harness

import (
	"iter"
	"time"

	"wanac/internal/audit"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// AvailabilityWindow is how long after a heal the availability oracle waits
// for a confirmed access before declaring a liveness violation.
const AvailabilityWindow = 60 * time.Second

// OracleSet bundles the five harness invariant oracles behind one facade so
// other drivers (internal/scenario's named scenarios, most importantly)
// attach exactly the checks the harness uses — same bounds, same
// jurisdiction rules — instead of reimplementing them. The driver feeds
// observations through the Judge/Sweep/Arm methods while it runs, calls
// AnalyzeTrace (and, when audit rings were enabled, AnalyzeAudit) once
// afterwards, and reads Reports/Violations.
type OracleSet struct {
	rev   *revocationOracle
	seq   *sequencingOracle
	cache *cacheOracle
	avail *availabilityOracle
	aud   *auditOracle
}

// NewOracleSet creates the five oracles for one scenario execution. te and
// queryTimeout parameterize the revocation-safety bound (Te + QueryTimeout);
// cacheLimit bounds host caches for the hygiene oracle (0 means unbounded);
// checkQuorum and maxAttempts parameterize the audit-completeness oracle's
// evidence checks (a quorum allow must cite >= checkQuorum confirmations, a
// default outcome must cite maxAttempts exhausted rounds).
func NewOracleSet(te, queryTimeout time.Duration, cacheLimit, checkQuorum, maxAttempts int) *OracleSet {
	return &OracleSet{
		rev:   newRevocationOracle(te, queryTimeout),
		seq:   newSequencingOracle(),
		cache: newCacheOracle(cacheLimit),
		avail: newAvailabilityOracle(),
		aud:   newAuditOracle(te, checkQuorum, maxAttempts),
	}
}

// JudgeCheck judges one access decision against the revocation-safety bound.
// start is when the check was issued; revokedAt is the user's pending
// revocation-quorum time at issue (zero if none); stillRevoked reports
// whether that same revocation is still the user's latest admin state at
// decision time (a concurrent re-grant clears jurisdiction).
func (s *OracleSet) JudgeCheck(user wire.UserID, host int, start, revokedAt time.Time, stillRevoked, allowed, defaultAllowed bool) {
	s.rev.judge(user, host, start, revokedAt, stillRevoked, allowed, defaultAllowed)
}

// SweepCache feeds one host cache observation (retained entry count and how
// many of those are already expired on the host's clock) to the hygiene
// oracle.
func (s *OracleSet) SweepCache(at time.Time, host, retained, expired int) {
	s.cache.sweep(at, host, retained, expired)
}

// ArmProbe registers one post-heal availability obligation: host must
// confirm access for user — whose grant was stable before the heal — within
// AvailabilityWindow. The driver runs the probe rounds itself (setting Done
// on an allow, Aborted on interference) and closes it with JudgeProbe.
func (s *OracleSet) ArmProbe(host int, user wire.UserID, healAt time.Time) *Probe {
	s.avail.armed()
	return &Probe{Host: host, User: user, HealAt: healAt}
}

// JudgeProbe closes an armed probe at its deadline: a probe neither Done nor
// Aborted is a liveness violation.
func (s *OracleSet) JudgeProbe(pr *Probe, at time.Time, window time.Duration) {
	s.avail.judge(pr, at, window)
}

// AnalyzeTrace runs the monotonic-sequencing oracle's post-hoc pass over the
// recorded event trace and quorum times. Call once, after the run: events
// is the log read where it lies (trace.Collector.All), not a copy of it. The
// pass is only valid if the scenario never crash-recovered a manager
// (recovery resyncs state and may legitimately replay counters).
func (s *OracleSet) AnalyzeTrace(events iter.Seq[*trace.Event], quorumAt map[wire.UpdateSeq]time.Time) {
	s.seq.analyze(events, quorumAt)
}

// AnalyzeAudit runs the audit-completeness oracle's post-hoc pass: every
// decision event in the trace must have a matching audit record (modulo
// bounded ring drops, which each recorder accounts for exactly), and each
// record's evidence must be internally consistent with its reason. rings are
// the nodes' audit recorders (sim.World.AuditRings), read in place like the
// trace. With no rings the oracle simply reports zero observations, so
// drivers that leave audit rings off stay green.
func (s *OracleSet) AnalyzeAudit(events iter.Seq[*trace.Event], rings []*audit.Recorder) {
	s.aud.analyze(events, rings)
}

// All returns the oracles in canonical report order: revocation-safety,
// monotonic-sequencing, cache-hygiene, eventual-availability,
// audit-completeness.
func (s *OracleSet) All() []Oracle {
	return []Oracle{s.rev, s.seq, s.cache, s.avail, s.aud}
}

// Reports summarizes every oracle's observation and violation counts, in
// canonical order.
func (s *OracleSet) Reports() []OracleReport {
	var out []OracleReport
	for _, o := range s.All() {
		out = append(out, OracleReport{
			Name:         o.Name(),
			Observations: o.Observations(),
			Violations:   len(o.Violations()),
		})
	}
	return out
}

// Violations returns every invariant breach found, grouped by oracle in
// canonical order, detection order within each.
func (s *OracleSet) Violations() []Violation {
	var out []Violation
	for _, o := range s.All() {
		out = append(out, o.Violations()...)
	}
	return out
}
