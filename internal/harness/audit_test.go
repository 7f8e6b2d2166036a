package harness

// Unit tests for the audit-completeness oracle against hand-built journal
// records (the end-to-end judging of real runs is exercised by the harness
// and scenario tests, which attach it to every execution; that each record's
// decision event agrees with it is core's TestHostAuditExactness).

import (
	"strings"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/wire"
)

var auditT0 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

// feed hands the oracles a hand-built run: a journal for h0, whose window
// keeps one record, then each record of app "app" as that journal accepts
// it, then the end of the run.
func feed(o oracles, recs ...flight.Record) {
	j := flight.NewRecorder("h0", 1, nil)
	o.aud.watchJournals([]*flight.Recorder{j})
	for _, r := range recs {
		r.Node, r.Kind, r.App = "h0", flight.KindDecision, "app"
		j.Record(r)
	}
	o.finish(nil, auditT0)
}

func newTestOracles() oracles { return newOracles(30*time.Second, 0, 0, 2, 3) }

// runAuditOracle feeds the records and returns the audit oracle's
// violations.
func runAuditOracle(recs ...flight.Record) []Violation {
	o := newTestOracles()
	feed(o, recs...)
	return o.aud.viol
}

func TestAuditOracleCleanMatch(t *testing.T) {
	v := runAuditOracle(
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1", Expire: 20 * time.Second},
		flight.Record{T: auditT0.Add(time.Second), User: "u0", Reason: flight.ReasonCacheHit,
			Allowed: true, Granters: 2, Expiry: auditT0.Add(21 * time.Second)},
		flight.Record{T: auditT0.Add(2 * time.Second), User: "u1", Reason: flight.ReasonQuorumDeny,
			Set: 2, Queried: 2, Denials: 1},
	)
	if len(v) != 0 {
		t.Fatalf("clean records flagged: %+v", v)
	}
}

// TestAuditOracleSeesRecordsTheWindowDrops: the journal's window keeps one
// record, but its sink hands the oracle all three as they are accepted, so
// each is judged.
func TestAuditOracleSeesRecordsTheWindowDrops(t *testing.T) {
	o := newTestOracles()
	feed(o,
		flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
			Attempts: 1, Confirmations: 2, Managers: "m0,m1"},
		flight.Record{T: auditT0.Add(time.Second), User: "u1", Reason: flight.ReasonCacheHit,
			Allowed: true, Granters: 1, Expiry: auditT0.Add(10 * time.Second)},
		flight.Record{T: auditT0.Add(2 * time.Second), User: "u2", Reason: flight.ReasonUnregisteredDeny})
	if v := o.aud.viol; len(v) != 0 {
		t.Fatalf("records the window dropped misjudged: %+v", v)
	}
	if o.aud.obs != 3 {
		t.Fatalf("judged %d records, want all 3", o.aud.obs)
	}
}

// TestAuditOracleCountsDecisions: a host that decides with its journal
// detached made more decisions than its journal accepted, and the end of
// the run says so, once.
func TestAuditOracleCountsDecisions(t *testing.T) {
	r, err := NewRunner("count", sim.Config{
		Managers: 1, Hosts: 1, Users: []wire.UserID{"u0"},
		Policy: core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 3},
		Te:     time.Minute,
	}, Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := r.W
	if d, ok := w.CheckSync(0, "u0", wire.RightUse, time.Minute); !ok || !d.Allowed {
		t.Fatalf("recorded check: decided=%v %+v", ok, d)
	}
	w.Hosts[0].SetAudit(nil)
	if d, ok := w.CheckSync(0, "u0", wire.RightUse, time.Minute); !ok || !d.CacheHit {
		t.Fatalf("unrecorded check: decided=%v %+v", ok, d)
	}
	v := r.Run(0, nil, nil).Violations
	if len(v) != 1 || v[0].Oracle != OracleAudit || !strings.Contains(v[0].Detail, "h0 made 2 decisions but its journal accepted 1") {
		t.Fatalf("violations = %+v", v)
	}
}

// TestAuditOracleRecordWithoutDecision: a journal that accepts a decision
// record no check made is as incomplete as a decision with no record, and
// the end-of-run count says so.
func TestAuditOracleRecordWithoutDecision(t *testing.T) {
	r, err := NewRunner("phantom", sim.Config{
		Managers: 1, Hosts: 1, Users: []wire.UserID{"u0"},
		Policy: core.Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 3},
		Te:     time.Minute,
	}, Options{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var j *flight.Recorder
	for _, jr := range r.W.Journals {
		if jr.Node() == "h0" {
			j = jr
		}
	}
	if j == nil {
		t.Fatal("h0 has no journal")
	}
	j.Record(flight.Record{T: auditT0, Node: "h0", Kind: flight.KindDecision, App: "app", User: "u0",
		Reason: flight.ReasonCacheHit, Allowed: true, Granters: 1})
	v := r.Run(0, nil, nil).Violations
	if len(v) != 1 || v[0].Oracle != OracleAudit || !strings.Contains(v[0].Detail, "h0 made 0 decisions but its journal accepted 1") {
		t.Fatalf("violations = %+v", v)
	}
}

// TestAuditOracleReasonMismatch: a record whose outcome disagrees with its
// reason, either way, is flagged once and its evidence judged no further.
func TestAuditOracleReasonMismatch(t *testing.T) {
	for _, c := range []struct {
		rec  flight.Record
		frag string
	}{
		// A denied cache hit citing no granter: only the mismatch is told.
		{flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit}, "reason cache_hit implies allowed=true but record says false"},
		{flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny, Allowed: true,
			Set: 3, Queried: 3, Denials: 3}, "reason quorum_deny implies allowed=false but record says true"},
	} {
		v := runAuditOracle(c.rec)
		if len(v) != 1 || !strings.Contains(v[0].Detail, c.frag) {
			t.Errorf("%s: violations = %+v", c.rec.Reason, v)
		}
	}
}

func TestAuditOracleEvidenceConsistency(t *testing.T) {
	cases := []struct {
		name string
		rec  flight.Record
		frag string
	}{
		{"stale cache hit beyond te",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(5 * time.Minute)},
			"beyond the revocation bound"},
		{"cache hit citing expired entry",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true,
				Granters: 1, Expiry: auditT0.Add(-time.Second)},
			"already expired"},
		{"cache hit with no granters",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonCacheHit, Allowed: true},
			"cites no granting manager"},
		{"quorum allow below quorum",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 1, Managers: "m0"},
			"quorum is 2"},
		{"quorum allow manager-count mismatch",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumAllow, Allowed: true,
				Attempts: 1, Confirmations: 2, Managers: "m0"},
			"names 1 managers"},
		{"quorum deny with quorum still reachable",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 3, Denials: 1},
			"still reachable"},
		// Every manager asked denied — but 1 of 1 asked, with two of M=3
		// never heard from that could both grant: judged against M.
		{"quorum deny judged against M, not against the managers asked",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 1},
			"cites 1 denials of 3 managers (1 queried)"},
		{"quorum deny citing more denials than managers asked",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Set: 3, Queried: 1, Denials: 2},
			"cites 2 denials of 3 managers (1 queried)"},
		{"quorum deny without the manager set's size",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonQuorumDeny,
				Queried: 2, Denials: 2},
			"queried 2 of 0 managers"},
		{"default allow before exhausting R",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonDefaultAllow, Allowed: true,
				Attempts: 1},
			"only 1 of 3 attempts"},
		{"outcome contradicts reason",
			flight.Record{T: auditT0, User: "u0", Reason: flight.ReasonUnreachableDeny,
				Allowed: true, Attempts: 3},
			"implies allowed=false"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := runAuditOracle(c.rec)
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
