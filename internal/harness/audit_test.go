package harness

// Unit tests for the audit-completeness oracle against hand-built streams
// of decision events and journal records (the end-to-end judging of real
// runs is exercised by the harness and scenario tests, which attach it to
// every execution).

import (
	"strings"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

var auditT0 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

func decisionEvent(node string, at time.Duration, typ trace.EventType, user string, w trace.Word) trace.Event {
	return trace.Event{
		Time: auditT0.Add(at), Node: wire.NodeID(node), Type: typ,
		App: "app", User: wire.UserID(user), Word: w,
	}
}

// record is a decision record of app "app" that node's journal accepts.
func record(node string, rec flight.Record) flight.Record {
	rec.Node, rec.Kind, rec.App = node, flight.KindDecision, "app"
	return rec
}

// feed hands the oracles a hand-built run: journals for the named nodes,
// whose windows keep one record each, then every step in order — a
// trace.Event the judge takes as a node emits it, or a flight.Record its
// node's journal accepts — then the end of the run.
func feed(t *testing.T, o oracles, journals []string, steps ...any) {
	t.Helper()
	byNode := make(map[string]*flight.Recorder)
	var recs []*flight.Recorder
	for _, node := range journals {
		byNode[node] = flight.NewRecorder(node, 1, nil)
		recs = append(recs, byNode[node])
	}
	o.aud.watchJournals(recs)
	for _, s := range steps {
		switch s := s.(type) {
		case trace.Event:
			o.Emit(s)
		case flight.Record:
			byNode[s.Node].Record(s)
		default:
			t.Fatalf("step %T is neither an event nor a record", s)
		}
	}
	o.finish()
}

func newTestOracles() oracles { return newOracles(30*time.Second, 0, 0, 2, 3) }

// runAuditOracle feeds the h0 journal's records, then the events, and
// returns the audit oracle's violations.
func runAuditOracle(t *testing.T, events []trace.Event, recs ...flight.Record) []Violation {
	t.Helper()
	o := newTestOracles()
	var steps []any
	for _, r := range recs {
		steps = append(steps, record("h0", r))
	}
	for _, e := range events {
		steps = append(steps, e)
	}
	feed(t, o, []string{"h0"}, steps...)
	return o.aud.viol
}

func TestAuditOracleCleanMatch(t *testing.T) {
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", trace.WordQuorum),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u0", trace.WordNone),
		decisionEvent("h0", 2*time.Second, trace.EventAccessDenied, "u1", trace.WordRevoked),
	}
	v := runAuditOracle(t, events,
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1", Expire: 20 * time.Second},
		flight.Record{T: auditT0.Add(time.Second), User: "u0", Reason: flight.ReasonCacheHit,
			Allowed: true, Granters: 2, Expiry: auditT0.Add(21 * time.Second)},
		flight.Record{T: auditT0.Add(2 * time.Second), User: "u1", Reason: flight.ReasonQuorumDeny,
			Set: 2, Queried: 2, Denials: 1},
	)
	if len(v) != 0 {
		t.Fatalf("clean trace flagged: %+v", v)
	}
}

func TestAuditOracleSkipsWhenRecordingOff(t *testing.T) {
	oracles := newTestOracles()
	feed(t, oracles, nil, decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone))
	o := oracles.aud
	if len(o.viol) != 0 {
		t.Fatalf("no journals should mean no jurisdiction, got %+v", o.viol)
	}
	if o.obs != 0 {
		t.Fatalf("observed %d with recording off", o.obs)
	}
}

func TestAuditOracleMissingRecords(t *testing.T) {
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u0", trace.WordNone),
	}
	v := runAuditOracle(t, events,
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true, Granters: 1},
	)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "2 decision events in trace but 1 audit records accepted") {
		t.Fatalf("violations = %+v", v)
	}
}

// TestAuditOracleRecordWithoutDecision: a journal that accepts a decision
// record no event announced is as incomplete as a decision with no record.
func TestAuditOracleRecordWithoutDecision(t *testing.T) {
	v := runAuditOracle(t, nil,
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true, Granters: 1},
	)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "0 decision events in trace but 1 audit records accepted") {
		t.Fatalf("violations = %+v", v)
	}
}

func TestAuditOracleNoRingForDecidingNode(t *testing.T) {
	o := newTestOracles()
	feed(t, o, []string{"h0"}, decisionEvent("h7", 0, trace.EventCacheHit, "u0", trace.WordNone))
	v := o.aud.viol
	if len(v) != 1 || !strings.Contains(v[0].Detail, "h7 made 1 decisions but has no audit ring") {
		t.Fatalf("violations = %+v", v)
	}
}

// TestAuditOracleSeesRecordsTheWindowDrops: the journal's window keeps one
// record, but its sink hands the oracle all three as they are accepted, so
// each is judged against its own event.
func TestAuditOracleSeesRecordsTheWindowDrops(t *testing.T) {
	events := []trace.Event{
		decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", trace.WordQuorum),
		decisionEvent("h0", time.Second, trace.EventCacheHit, "u1", trace.WordNone),
		decisionEvent("h0", 2*time.Second, trace.EventAccessDenied, "u2", trace.WordUnregistered),
	}
	o := newTestOracles()
	feed(t, o, []string{"h0"},
		record("h0", flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1"}),
		record("h0", flight.Record{T: auditT0.Add(time.Second), User: "u1", Reason: flight.ReasonCacheHit,
			Allowed: true, Granters: 1, Expiry: auditT0.Add(10 * time.Second)}),
		record("h0", flight.Record{T: auditT0.Add(2 * time.Second), User: "u2", Reason: flight.ReasonUnregisteredDeny}),
		events[0], events[1], events[2])
	if v := o.aud.viol; len(v) != 0 {
		t.Fatalf("records the window dropped misjudged: %+v", v)
	}
	if o.aud.obs != 3 {
		t.Fatalf("judged %d records, want all 3", o.aud.obs)
	}
}

// TestAuditOraclePairsEitherOrder: a node's decision event may come before
// or after its record; the oracle pairs them first in, first out either
// way, and holds nothing once both streams have caught up.
func TestAuditOraclePairsEitherOrder(t *testing.T) {
	ev := func(at time.Duration, user string) trace.Event {
		return decisionEvent("h0", at, trace.EventAccessDenied, user, trace.WordUnregistered)
	}
	rec := func(at time.Duration, user string) flight.Record {
		return record("h0", flight.Record{T: auditT0.Add(at), User: user, Reason: flight.ReasonUnregisteredDeny})
	}
	o := newTestOracles()
	feed(t, o, []string{"h0"},
		ev(0, "u0"), rec(0, "u0"), // event first
		rec(time.Second, "u1"), ev(time.Second, "u1"), // record first
		ev(2*time.Second, "u2"), ev(3*time.Second, "u3"), rec(2*time.Second, "u2"), rec(3*time.Second, "u3"))
	if v := o.aud.viol; len(v) != 0 {
		t.Fatalf("pairs misjudged: %+v", v)
	}
	if o.aud.obs != 4 || o.aud.held() != 0 {
		t.Fatalf("judged %d pairs holding %d, want 4 holding 0", o.aud.obs, o.aud.held())
	}
}

func TestAuditOracleReasonMismatch(t *testing.T) {
	events := []trace.Event{decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone)}
	v := runAuditOracle(t, events,
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1"},
	)
	if len(v) != 1 || !strings.Contains(v[0].Detail, "implies cache_hit") {
		t.Fatalf("violations = %+v", v)
	}
}

func TestAuditOracleEvidenceConsistency(t *testing.T) {
	cases := []struct {
		name string
		ev   trace.Event
		rec  flight.Record
		frag string
	}{
		{"stale cache hit beyond te",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(5 * time.Minute)},
			"beyond the revocation bound"},
		{"cache hit citing expired entry",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(-time.Second)},
			"already expired"},
		{"cache hit with no granters",
			decisionEvent("h0", 0, trace.EventCacheHit, "u0", trace.WordNone),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true},
			"cites no granting manager"},
		{"quorum allow below quorum",
			decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", trace.WordQuorum),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 1, Managers: "m0"},
			"quorum is 2"},
		{"quorum allow manager-count mismatch",
			decisionEvent("h0", 0, trace.EventAccessAllowed, "u0", trace.WordQuorum),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 2, Managers: "m0"},
			"names 1 managers"},
		{"quorum deny with quorum still reachable",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", trace.WordRevoked),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 3, Denials: 1},
			"still reachable"},
		// Every manager asked denied — but 1 of 1 asked, with two of M=3
		// never heard from that could both grant: judged against M.
		{"quorum deny judged against M, not against the managers asked",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", trace.WordRevoked),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 1},
			"cites 1 denials of 3 managers (1 queried)"},
		{"quorum deny citing more denials than managers asked",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", trace.WordRevoked),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 2},
			"cites 2 denials of 3 managers (1 queried)"},
		{"quorum deny without the manager set's size",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", trace.WordRevoked),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Queried: 2, Denials: 2},
			"queried 2 of 0 managers"},
		{"default allow before exhausting R",
			decisionEvent("h0", 0, trace.EventAccessDefault, "u0", trace.WordNone),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonDefaultAllow, Allowed: true,
				Attempts: 1},
			"only 1 of 3 attempts"},
		{"outcome contradicts reason",
			decisionEvent("h0", 0, trace.EventAccessDenied, "u0", trace.WordUnreachable),
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonUnreachableDeny,
				Allowed: true, Attempts: 3},
			"implies allowed=false"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := runAuditOracle(t, []trace.Event{c.ev}, c.rec)
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
