package harness

// Unit tests for the audit-completeness oracle against synthetic traces
// and dumps (the end-to-end pass over real runs is exercised by the
// harness and scenario tests, which attach it to every execution).

import (
	"iter"
	"strings"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

var auditT0 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

func decisionEvent(node string, at time.Duration, typ trace.EventType, user, note string) trace.Event {
	return trace.Event{
		Time: auditT0.Add(at), Node: wire.NodeID(node), Type: typ,
		App: "app", User: wire.UserID(user), Note: note,
	}
}

// ringOf builds node's audit recorder as a run that accepted `decisions`
// decision records leaves it: a ring of len(recs) slots retaining recs (the
// newest suffix), the older ones overwritten.
func ringOf(node string, decisions int, recs ...audit.Record) *audit.Recorder {
	ring := audit.NewRecorder(node, len(recs), nil)
	for i := len(recs); i < decisions; i++ {
		ring.Record(audit.Record{Kind: audit.KindDecision, T: auditT0})
	}
	for _, rec := range recs {
		rec.Kind = audit.KindDecision
		rec.App = "app"
		ring.Record(rec)
	}
	return ring
}

// collected is the trace a run that emitted events leaves behind, as the
// oracles read it.
func collected(events []trace.Event) iter.Seq[*trace.Event] {
	c := trace.NewCollector()
	for _, e := range events {
		c.Emit(e)
	}
	return c.All()
}

func runAuditOracle(t *testing.T, events []trace.Event, rings ...*audit.Recorder) []Violation {
	t.Helper()
	o := newOracles(30*time.Second, 0, 0, 2, 3)
	o.judgeLog(collected(events), rings)
	return o.aud.viol
}

func TestAuditOracleCleanMatch(t *testing.T) {
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", "quorum"),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u0", ""),
		decisionEvent("h0", 2*time.Second, trace.EventAccessDenied, "u1", "revoked"),
	}
	ring := ringOf("h0", 3,
		audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1", Expire: 20 * time.Second},
		audit.Record{T: auditT0.Add(time.Second), User: "u0", Reason: audit.ReasonCacheHit,
			Allowed: true, Granters: 2, Expiry: auditT0.Add(21 * time.Second)},
		audit.Record{T: auditT0.Add(2 * time.Second), User: "u1", Reason: audit.ReasonQuorumDeny,
			Set: 2, Queried: 2, Denials: 1},
	)
	if v := runAuditOracle(t, events, ring); len(v) != 0 {
		t.Fatalf("clean trace flagged: %+v", v)
	}
}

func TestAuditOracleSkipsWhenRecordingOff(t *testing.T) {
	events := []trace.Event{decisionEvent("h0", 0, trace.EventCacheHit, "u0", "")}
	oracles := newOracles(30*time.Second, 0, 0, 2, 3)
	oracles.judgeLog(collected(events), nil)
	o := oracles.aud
	if len(o.viol) != 0 {
		t.Fatalf("no dumps should mean no jurisdiction, got %+v", o.viol)
	}
	if o.obs != 0 {
		t.Fatalf("observed %d with recording off", o.obs)
	}
}

func TestAuditOracleMissingRecords(t *testing.T) {
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventCacheHit, "u0", ""),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u0", ""),
	}
	ring := ringOf("h0", 1,
		audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonCacheHit, Allowed: true, Granters: 1},
	)
	v := runAuditOracle(t, events, ring)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "2 decision events in trace but 1 audit records accepted") {
		t.Fatalf("violations = %+v", v)
	}
}

func TestAuditOracleNoRingForDecidingNode(t *testing.T) {
	events := []trace.Event{decisionEvent("h7", 0, trace.EventCacheHit, "u0", "")}
	v := runAuditOracle(t, events, ringOf("h0", 0))
	if len(v) != 1 || !strings.Contains(v[0].Detail, "h7 made 1 decisions but has no audit ring") {
		t.Fatalf("violations = %+v", v)
	}
}

func TestAuditOracleRingDropsSuffixMatch(t *testing.T) {
	// Three decisions, ring kept only the newest two: the retained suffix
	// must line up against the LAST two events, not the first.
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", "quorum"),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u1", ""),
		decisionEvent("h0", 2*time.Second, trace.EventAccessDenied, "u2", "unregistered"),
	}
	ring := ringOf("h0", 3,
		audit.Record{T: auditT0.Add(time.Second), User: "u1", Reason: audit.ReasonCacheHit,
			Allowed: true, Granters: 1, Expiry: auditT0.Add(10 * time.Second)},
		audit.Record{T: auditT0.Add(2 * time.Second), User: "u2", Reason: audit.ReasonUnregisteredDeny},
	)
	if v := runAuditOracle(t, events, ring); len(v) != 0 {
		t.Fatalf("suffix match failed: %+v", v)
	}
}

func TestAuditOracleReasonMismatch(t *testing.T) {
	events := []trace.Event{decisionEvent("h0", 0, trace.EventCacheHit, "u0", "")}
	ring := ringOf("h0", 1,
		audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1"},
	)
	v := runAuditOracle(t, events, ring)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "implies cache_hit") {
		t.Fatalf("violations = %+v", v)
	}
}

func TestAuditOracleEvidenceConsistency(t *testing.T) {
	cases := []struct {
		name string
		ev   trace.Event
		rec  audit.Record
		frag string
	}{
		{"stale cache hit beyond te",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", ""),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(5 * time.Minute)},
			"beyond the revocation bound"},
		{"cache hit citing expired entry",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", ""),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(-time.Second)},
			"already expired"},
		{"cache hit with no granters",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", ""),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonCacheHit, Allowed: true},
			"cites no granting manager"},
		{"quorum allow below quorum",
			decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", "quorum"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 1, Managers: "m0"},
			"quorum is 2"},
		{"quorum allow manager-count mismatch",
			decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", "quorum"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 2, Managers: "m0"},
			"names 1 managers"},
		{"quorum deny with quorum still reachable",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", "revoked"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumDeny,
				Set: 3, Queried: 3, Denials: 1},
			"still reachable"},
		// Every manager asked denied — but 1 of 1 asked, with two of M=3
		// never heard from that could both grant: judged against M.
		{"quorum deny judged against M, not against the managers asked",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", "revoked"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 1},
			"cites 1 denials of 3 managers (1 queried)"},
		{"quorum deny citing more denials than managers asked",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", "revoked"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 2},
			"cites 2 denials of 3 managers (1 queried)"},
		{"quorum deny without the manager set's size",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", "revoked"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonQuorumDeny,
				Queried: 2, Denials: 2},
			"queried 2 of 0 managers"},
		{"default allow before exhausting R",
			decisionEvent("h0", 0, trace.EventAccessDefault, "u0", ""),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonDefaultAllow, Allowed: true,
				Attempts: 1},
			"only 1 of 3 attempts"},
		{"outcome contradicts reason",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", "unreachable"),
			audit.Record{T: auditT0, User: "u0", Reason: audit.ReasonUnreachableDeny,
				Allowed: true, Attempts: 3},
			"implies allowed=false"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := runAuditOracle(t, []trace.Event{c.ev}, ringOf("h0", 1, c.rec))
			if len(v) == 0 {
				t.Fatalf("inconsistent evidence not flagged")
			}
			if !strings.Contains(v[0].Detail, c.frag) {
				t.Fatalf("violation %q missing %q", v[0].Detail, c.frag)
			}
		})
	}
}

func TestOracleSetIncludesAudit(t *testing.T) {
	reports := newOracles(time.Minute, time.Second, 0, 2, 3).reports()
	if len(reports) != 5 || reports[4].Name != OracleAudit {
		t.Fatalf("reports = %+v", reports)
	}
}
