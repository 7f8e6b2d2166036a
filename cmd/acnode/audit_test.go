package main

// Live test for the decision half of the journal: a real two-manager
// deployment over TCP, the three canonical decisions driven end to end —
// quorum allow, cache hit, revoke then quorum deny — then /debug/journal
// pulled and parsed the way acaudit would, and the -audit.jsonl stream
// re-read after shutdown.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/wire"
)

func TestDebugAuditEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	auditPath := filepath.Join(t.TempDir(), "h0-audit.jsonl")
	c := startCluster(t, func(cfg *nodeConfig) {
		cfg.journalRing = 256
		if cfg.id == "h0" {
			cfg.auditPath = auditPath
		}
	})
	host := c.host().host

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// (a) Quorum allow: C=2, both managers must grant.
	d, err := host.CheckContext(ctx, "stocks", "alice", wire.RightUse)
	if err != nil || !d.Allowed || d.CacheHit {
		t.Fatalf("quorum check = %+v, %v", d, err)
	}
	// (b) Cache hit: the same check again is served locally.
	d, err = host.CheckContext(ctx, "stocks", "alice", wire.RightUse)
	if err != nil || !d.CacheHit {
		t.Fatalf("cache-hit check = %+v, %v", d, err)
	}
	// (c) Revoke at m0, wait for the update quorum, then poll until the
	// revocation notice has flushed the host cache and the check denies.
	replyc := make(chan wire.AdminReply, 1)
	c.runtimes[0].mgr.Submit(wire.AdminOp{
		Op: wire.OpRevoke, App: "stocks", User: "alice", Right: wire.RightUse, Issuer: "root",
	}, func(r wire.AdminReply) { replyc <- r })
	select {
	case r := <-replyc:
		if !r.QuorumReached {
			t.Fatalf("revoke reply = %+v", r)
		}
	case <-ctx.Done():
		t.Fatal("revoke never reached its update quorum")
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		d, err = host.CheckContext(ctx, "stocks", "alice", wire.RightUse)
		if err != nil {
			t.Fatalf("post-revoke check: %v", err)
		}
		if !d.Allowed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice still allowed after revocation: %+v", d)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The host journal must explain all decisions with the right reasons
	// and evidence.
	hd := pullJournal(t, c.debugAddr("h0"))
	if len(hd.Header.Nodes) != 1 || hd.Header.Nodes[0] != "h0" {
		t.Fatalf("h0 dump nodes = %v, want [h0]", hd.Header.Nodes)
	}
	byReason := map[flight.Reason][]flight.Record{}
	decisions := 0
	for _, r := range hd.Records {
		switch r.Kind {
		case flight.KindResponse:
			t.Fatalf("host journal holds a response record: %+v", r)
		case flight.KindDecision:
			decisions++
			byReason[r.Reason] = append(byReason[r.Reason], r)
		}
	}
	if decisions < 3 || hd.Header.Dropped != 0 {
		t.Fatalf("h0 lists %d decision records (%d records dropped), want >= 3 and none", decisions, hd.Header.Dropped)
	}
	qa := byReason[flight.ReasonQuorumAllow]
	if len(qa) != 1 {
		t.Fatalf("quorum-allow records = %+v", qa)
	}
	if qa[0].Managers != "m0,m1" || qa[0].Confirmations != 2 || qa[0].Quorum != 2 ||
		qa[0].Trace == 0 || qa[0].Expire <= 0 {
		t.Fatalf("quorum-allow evidence = %+v", qa[0])
	}
	ch := byReason[flight.ReasonCacheHit]
	if len(ch) == 0 || ch[0].Granters != 2 || ch[0].Expiry.IsZero() {
		t.Fatalf("cache-hit records = %+v", ch)
	}
	qd := byReason[flight.ReasonQuorumDeny]
	if len(qd) == 0 || qd[0].Denials < 1 || qd[0].Queried < qd[0].Denials {
		t.Fatalf("quorum-deny records = %+v", qd)
	}

	// m0 must hold matching response records: a grant echoing the check's
	// trace ID, and a deny citing the revoke operation it rests on.
	md := pullJournal(t, c.debugAddr("m0"))
	grantSeen, denyCites := false, false
	for _, r := range md.Records {
		if r.Kind != flight.KindResponse || r.Peer != "h0" {
			continue
		}
		if r.Reason == flight.ReasonQueryGranted && r.Trace == qa[0].Trace {
			grantSeen = true
		}
		if r.Reason == flight.ReasonQueryDenied && r.Origin == "m0" && r.Counter >= 1 {
			denyCites = true
		}
	}
	if !grantSeen {
		t.Errorf("m0 has no granted response with trace %016x: %+v", qa[0].Trace, md.Records)
	}
	if !denyCites {
		t.Errorf("m0's post-revoke deny cites no ACL operation: %+v", md.Records)
	}

	// Explain must reconstruct the quorum allow causally from the merged
	// live dumps, naming both managers.
	merged := flight.Merge(hd, md, pullJournal(t, c.debugAddr("m1")))
	var out strings.Builder
	n := flight.Explain(&out, merged, flight.Filter{Trace: qa[0].Trace})
	if n != 1 {
		t.Fatalf("explained %d decisions for the quorum trace, want 1", n)
	}
	for _, want := range []string{"reason=quorum_allow", "(m0,m1)", "manager m0: granted to host h0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explanation missing %q:\n%s", want, out.String())
		}
	}

	// The -audit.jsonl stream survives shutdown and replays every decision.
	c.close()
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != decisions {
		t.Fatalf("audit.jsonl has %d lines, the journal lists %d decisions", len(lines), decisions)
	}
	var first flight.Record
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("audit.jsonl line 0: %v", err)
	}
	if first.Reason != flight.ReasonQuorumAllow || first.Node != "h0" {
		t.Fatalf("first streamed record = %+v", first)
	}
}
