package core

import (
	"testing"
	"time"
	"wanac/internal/acl"

	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// tickClock advances one millisecond every time it is read, so two readings
// are never equal and the order they were taken in shows in their values.
type tickClock struct {
	now   time.Time
	reads int
}

// tickEnv is a fakeEnv on a shared tickClock.
type tickEnv struct {
	*fakeEnv
	clock     *tickClock
	firstSend time.Time // the last reading anyone took before this node first sent
}

func (e *tickEnv) Now() time.Time {
	e.clock.reads++
	e.clock.now = e.clock.now.Add(time.Millisecond)
	e.fakeEnv.now = e.clock.now
	return e.clock.now
}

func (e *tickEnv) Send(to wire.NodeID, msg wire.Message) {
	if e.firstSend.IsZero() {
		e.firstSend = e.clock.now
	}
	e.fakeEnv.Send(to, msg)
}

// TestOneClockReadingPerEntry pins the two properties of reading the clock
// once per entry into a node. It is read exactly once — by a Check that
// misses, a message, a timer — whatever the entry goes on to stamp. And
// every reuse of that reading errs on the safe side of the Te bound (§3.2):
// the host's limit counts from a reading no later than its first Send, and
// the manager keeps forwarding revocations at least until the slowest legal
// host clock has reached that limit.
func TestOneClockReadingPerEntry(t *testing.T) {
	const (
		app wire.AppID = "app"
		te             = 10 * time.Second
		b              = 0.5
	)
	clock := &tickClock{now: vclock.Epoch}
	newEnv := func() *tickEnv { return &tickEnv{fakeEnv: newFakeEnv(), clock: clock} }
	entry := func(what string, fn func()) {
		t.Helper()
		before := clock.reads
		fn()
		if got := clock.reads - before; got != 1 {
			t.Errorf("%s read the clock %d times, want 1", what, got)
		}
	}

	mgrIDs := []wire.NodeID{"m0", "m1"}
	mgrEnvs := map[wire.NodeID]*tickEnv{}
	mgrs := map[wire.NodeID]*Manager{}
	for _, id := range mgrIDs {
		mgrEnvs[id] = newEnv()
		mgrs[id] = NewManager(id, mgrEnvs[id], nil, nil)
		if err := mgrs[id].AddApp(app, ManagerAppConfig{Peers: mgrIDs, CheckQuorum: 2, Te: te, ClockBound: b}); err != nil {
			t.Fatal(err)
		}
		mgrs[id].Seed(app, "u", wire.RightUse)
	}
	hostEnv := newEnv()
	h := NewHost("h0", hostEnv, nil, nil)
	if err := h.RegisterApp(app, HostAppConfig{
		Managers: mgrIDs,
		Policy:   Policy{CheckQuorum: 2, Te: te, ClockBound: b, QueryTimeout: time.Second, MaxAttempts: 3},
	}); err != nil {
		t.Fatal(err)
	}

	var decided []Decision
	entry("Check (miss)", func() {
		h.Check(app, "u", wire.RightUse, func(d Decision) { decided = append(decided, d) })
	})
	queries := hostEnv.sent
	if len(queries) != 2 {
		t.Fatalf("%d queries sent, want 2", len(queries))
	}
	for _, q := range queries {
		entry("Manager.HandleMessage(Query)", func() { mgrs[q.To].HandleMessage("h0", q.Msg) })
	}
	for _, id := range mgrIDs {
		resp := mgrEnvs[id].sentTo("h0")
		if len(resp) != 1 {
			t.Fatalf("%s answered %d times, want 1", id, len(resp))
		}
		entry("Host.HandleMessage(Response)", func() { h.HandleMessage(id, resp[0]) })
	}
	if len(decided) != 1 || !decided[0].Allowed {
		t.Fatalf("decisions = %+v, want one allow", decided)
	}

	expire := time.Duration(float64(te) * b)
	e, st := h.cache.LookupStatus(app, "u", wire.RightUse, h.env.Now())
	if n := h.cache.Len(); n != 1 || st != acl.Hit {
		t.Fatalf("cache holds %d entries, u's %+v (status %d), want 1 hit", n, e, st)
	}
	limit := e.Limit
	if latest := hostEnv.firstSend.Add(expire); limit.After(latest) {
		t.Errorf("cached limit %v is later than the reading before the first Send + te = %v", limit, latest)
	}

	// On the slowest legal host clock the entry lives te/b of real time from
	// the reading its limit counts from; the manager's deadline, visible on
	// the notice a revocation creates, must not fall short of that.
	heldUntil := limit.Add(-expire).Add(time.Duration(float64(expire) / b))
	revoke := wire.Update{Seq: wire.UpdateSeq{Origin: "m1", Counter: 1}, Op: wire.OpRevoke, App: app, User: "u", Right: wire.RightUse, Issued: clock.now}
	entry("Manager.ForceApply", func() {
		if err := mgrs["m0"].ForceApply(revoke); err != nil {
			t.Fatal(err)
		}
	})
	n := mgrs["m0"].notices[noticeKey{seq: revoke.Seq, host: "h0"}]
	if n == nil {
		t.Fatal("revocation not forwarded to h0")
	}
	if n.deadline.Before(heldUntil) {
		t.Errorf("manager stops forwarding at %v, before the host entry can expire at %v", n.deadline, heldUntil)
	}

	// Timer entries: the manager's notice retransmission and the host's
	// query timeout (a second check nobody answers), which starts a round.
	fire := func(e *tickEnv, what string) {
		t.Helper()
		tm := e.timers[len(e.timers)-1]
		tm.fired = true
		entry(what, tm.fn)
	}
	fire(mgrEnvs["m0"], "manager notice-retry timer")
	h.Check(app, "v", wire.RightUse, func(Decision) {})
	sent := len(hostEnv.sent)
	fire(hostEnv, "host query-timeout timer")
	if len(hostEnv.sent) == sent {
		t.Error("query timeout did not start another round")
	}
}
