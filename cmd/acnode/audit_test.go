package main

// Live test for the audit surface: a real two-manager deployment over TCP,
// the three canonical decisions driven end to end — quorum allow, cache
// hit, revoke then quorum deny — then /debug/audit pulled and parsed the
// way acaudit would, and the -audit.jsonl stream
// re-read after shutdown.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanac/internal/audit"
	"wanac/internal/wire"
)

func pullAudit(t *testing.T, addr string) *audit.Dump {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/audit")
	if err != nil {
		t.Fatalf("GET /debug/audit on %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/audit status = %d", resp.StatusCode)
	}
	d, err := audit.ReadDump(resp.Body)
	if err != nil {
		t.Fatalf("audit dump from %s does not parse: %v", addr, err)
	}
	return d
}

func TestDebugAuditEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	auditPath := filepath.Join(t.TempDir(), "h0-audit.jsonl")
	c := startCluster(t, func(cfg *nodeConfig) {
		cfg.auditRing = 256
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

	// The host ring must explain all decisions with the right reasons and
	// evidence.
	hd := pullAudit(t, c.debugAddr("h0"))
	if len(hd.Header.Nodes) != 1 || hd.Header.Nodes[0] != "h0" {
		t.Fatalf("h0 dump nodes = %v, want [h0]", hd.Header.Nodes)
	}
	if hd.Header.Decisions < 3 {
		t.Fatalf("h0 accepted %d decision records, want >= 3", hd.Header.Decisions)
	}
	byReason := map[audit.Reason][]audit.Record{}
	for _, r := range hd.Records {
		if r.Kind != audit.KindDecision {
			t.Fatalf("host ring holds a non-decision record: %+v", r)
		}
		byReason[r.Reason] = append(byReason[r.Reason], r)
	}
	qa := byReason[audit.ReasonQuorumAllow]
	if len(qa) != 1 {
		t.Fatalf("quorum-allow records = %+v", qa)
	}
	if qa[0].Managers != "m0,m1" || qa[0].Confirmations != 2 || qa[0].Quorum != 2 ||
		qa[0].Trace == 0 || qa[0].Expire <= 0 {
		t.Fatalf("quorum-allow evidence = %+v", qa[0])
	}
	ch := byReason[audit.ReasonCacheHit]
	if len(ch) == 0 || ch[0].Granters != 2 || ch[0].Expiry.IsZero() {
		t.Fatalf("cache-hit records = %+v", ch)
	}
	qd := byReason[audit.ReasonQuorumDeny]
	if len(qd) == 0 || qd[0].Denials < 1 || qd[0].Queried < qd[0].Denials {
		t.Fatalf("quorum-deny records = %+v", qd)
	}

	// m0 must hold matching response records: a grant echoing the check's
	// trace ID, and a deny citing the revoke operation it rests on.
	md := pullAudit(t, c.debugAddr("m0"))
	grantSeen, denyCites := false, false
	for _, r := range md.Records {
		if r.Kind != audit.KindResponse || r.Peer != "h0" {
			continue
		}
		if r.Reason == audit.ReasonQueryGranted && r.Trace == qa[0].Trace {
			grantSeen = true
		}
		if r.Reason == audit.ReasonQueryDenied && r.Origin == "m0" && r.Counter >= 1 {
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
	merged := audit.Merge(hd, md, pullAudit(t, c.debugAddr("m1")))
	var out strings.Builder
	n := audit.Explain(&out, merged, nil, audit.Filter{Trace: qa[0].Trace})
	if n != 1 {
		t.Fatalf("explained %d decisions for the quorum trace, want 1", n)
	}
	for _, want := range []string{"reason=quorum_allow", "(m0,m1)", "manager m0: granted to host h0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explanation missing %q:\n%s", want, out.String())
		}
	}

	// The -audit.jsonl stream survives shutdown and replays every record.
	c.close()
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if uint64(len(lines)) != hd.Header.Decisions {
		t.Fatalf("audit.jsonl has %d lines, ring accepted %d", len(lines), hd.Header.Decisions)
	}
	var first audit.Record
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("audit.jsonl line 0: %v", err)
	}
	if first.Reason != audit.ReasonQuorumAllow || first.Node != "h0" {
		t.Fatalf("first streamed record = %+v", first)
	}
}
