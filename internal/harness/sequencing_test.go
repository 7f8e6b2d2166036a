package harness

// Unit tests for the monotonic-sequencing oracle against hand-built streams
// of update events, fed as a run's world would feed them.

import (
	"slices"
	"strings"
	"testing"
	"time"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

func updateEvent(node string, at time.Duration, typ trace.EventType, origin string, counter uint64) trace.Event {
	return trace.Event{
		Time: auditT0.Add(at), Node: wire.NodeID(node), Type: typ,
		Seq: wire.UpdateSeq{Origin: wire.NodeID(origin), Counter: counter},
	}
}

func issued(at time.Duration, origin string, counter uint64) trace.Event {
	return updateEvent(origin, at, trace.EventUpdateIssued, origin, counter)
}

func quorate(at time.Duration, origin string, counter uint64) trace.Event {
	return updateEvent(origin, at, trace.EventUpdateQuorum, origin, counter)
}

// runSequencingOracle feeds the events and returns the oracle at the end.
func runSequencingOracle(t *testing.T, events ...trace.Event) *sequencingOracle {
	t.Helper()
	o := newTestOracles()
	steps := make([]any, len(events))
	for i, e := range events {
		steps[i] = e
	}
	feed(t, o, nil, steps...)
	return o.seq
}

func details(v []Violation) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = x.Detail
	}
	return out
}

func TestSequencingOracleCleanStream(t *testing.T) {
	o := runSequencingOracle(t,
		issued(0, "m0", 1),
		updateEvent("m1", time.Second, trace.EventUpdateApplied, "m0", 1),
		quorate(time.Second, "m0", 1),
		issued(2*time.Second, "m0", 2),
		issued(2*time.Second, "m0", 3),
		quorate(3*time.Second, "m0", 3), // out of counter order: still fine
		quorate(3*time.Second, "m0", 2),
	)
	if len(o.viol) != 0 {
		t.Fatalf("clean stream flagged: %v", details(o.viol))
	}
	// Three issues, one apply, three updates judged at quorum, none held.
	if held := len(o.issuedAt) + len(o.early); o.obs != 7 || held != 0 {
		t.Fatalf("obs=%d held=%d, want 7 and 0", o.obs, held)
	}
}

func TestSequencingOracleQuorumBeforeIssue(t *testing.T) {
	o := runSequencingOracle(t,
		quorate(time.Second, "m0", 1),
		issued(2*time.Second, "m0", 1),
	)
	if len(o.viol) != 1 || !strings.Contains(o.viol[0].Detail, "m0/1 reached quorum at 12:00:01.000 before issue at 12:00:02.000") {
		t.Fatalf("violations = %v", details(o.viol))
	}
	if !o.viol[0].At.Equal(auditT0.Add(time.Second)) {
		t.Fatalf("violation at %s, want the quorum's time", o.viol[0].At)
	}
}

// TestSequencingOracleQuorumIssuedAtOnce: a single manager is its own
// update quorum, so the quorum event follows the issue at the same instant
// — or, in a hand-built stream, precedes it. Neither is early.
func TestSequencingOracleQuorumIssuedAtOnce(t *testing.T) {
	o := runSequencingOracle(t,
		quorate(time.Second, "m0", 1),
		issued(time.Second, "m0", 1),
		issued(2*time.Second, "m0", 2),
		quorate(2*time.Second, "m0", 2),
	)
	if len(o.viol) != 0 {
		t.Fatalf("violations = %v", details(o.viol))
	}
}

func TestSequencingOracleQuorumNeverIssued(t *testing.T) {
	o := runSequencingOracle(t,
		issued(0, "m0", 1),
		quorate(time.Second, "m0", 1),
		quorate(2*time.Second, "m0", 5),
	)
	if len(o.viol) != 1 || !strings.Contains(o.viol[0].Detail, "m0/5 reached quorum but was never issued") {
		t.Fatalf("violations = %v", details(o.viol))
	}
	if o.obs != 3 {
		t.Fatalf("obs=%d, want 3 (one issue, two quorums)", o.obs)
	}
}

func TestSequencingOracleDuplicateQuorumJudgedOnce(t *testing.T) {
	o := runSequencingOracle(t,
		issued(0, "m0", 1),
		quorate(time.Second, "m0", 1),
		quorate(2*time.Second, "m0", 1),
		quorate(3*time.Second, "m0", 7), // never issued, and repeated
		quorate(4*time.Second, "m0", 7),
	)
	if o.obs != 3 {
		t.Fatalf("obs=%d, want 3: one issue, each update's quorum once", o.obs)
	}
	if len(o.viol) != 1 || !strings.Contains(o.viol[0].Detail, "m0/7 reached quorum but was never issued") {
		t.Fatalf("violations = %v", details(o.viol))
	}
}

func TestSequencingOracleAppliedOutOfOrder(t *testing.T) {
	o := runSequencingOracle(t,
		updateEvent("m1", 0, trace.EventUpdateApplied, "m0", 2),
		updateEvent("m1", time.Second, trace.EventUpdateApplied, "m0", 1),
		updateEvent("m2", time.Second, trace.EventUpdateApplied, "m0", 1), // another manager: its own order
	)
	if len(o.viol) != 1 || o.viol[0].Detail != "manager m1 applied m0/1 after m0/2" {
		t.Fatalf("violations = %v", details(o.viol))
	}
}

func TestSequencingOracleIssuedOutOfOrder(t *testing.T) {
	o := runSequencingOracle(t, issued(0, "m0", 2), issued(time.Second, "m0", 2))
	if len(o.viol) != 1 || o.viol[0].Detail != "origin m0 issued counter 2 after 2" {
		t.Fatalf("violations = %v", details(o.viol))
	}
}

// TestSequencingOracleReportsInOneOrder feeds a stream with two early
// quorums and two never issued many times: the report must come out the
// same every time, in the order the oracle found each breach.
func TestSequencingOracleReportsInOneOrder(t *testing.T) {
	stream := []trace.Event{
		quorate(time.Second, "m1", 4),
		quorate(time.Second, "m0", 9),
		quorate(2*time.Second, "m2", 1),
		quorate(2*time.Second, "m0", 3),
		issued(3*time.Second, "m0", 3),
		issued(3*time.Second, "m2", 1),
	}
	want := []string{
		"update m0/3 reached quorum at 12:00:02.000 before issue at 12:00:03.000",
		"update m2/1 reached quorum at 12:00:02.000 before issue at 12:00:03.000",
		"update m1/4 reached quorum but was never issued",
		"update m0/9 reached quorum but was never issued",
	}
	for i := 0; i < 20; i++ {
		if got := details(runSequencingOracle(t, stream...).viol); !slices.Equal(got, want) {
			t.Fatalf("run %d reported %q, want %q", i, got, want)
		}
	}
}

func TestSpans(t *testing.T) {
	var s spans
	for _, n := range []uint64{5, 1, 3, 2, 9, 4, 10, 8} {
		if s.has(n) {
			t.Fatalf("%d in %v before add", n, s)
		}
		s.add(n)
		if !s.has(n) {
			t.Fatalf("%d not in %v after add", n, s)
		}
	}
	if want := (spans{{1, 5}, {8, 10}}); !slices.Equal(s, want) {
		t.Fatalf("spans = %v, want %v", s, want)
	}
	for _, n := range []uint64{0, 6, 7, 11} {
		if s.has(n) {
			t.Fatalf("%d in %v", n, s)
		}
	}
}
