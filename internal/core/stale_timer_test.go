package core

// A check, an update's record and a revocation notice's record each own one
// timer for their whole life, recycled lives included (see timer in
// env.go). On a live node a timer can fire while the node's lock is held by
// the message that finishes its job: Stop then returns false, and the
// callback runs later, once it gets the lock — by which time the record may
// be serving another job. These tests deliver such firings late and require
// the next job neither to act early nor to lose its own timer.

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// lateEnv is a deterministic Env whose timers fire when the test says and
// whose callbacks run when the test says: a fired timer's Stop returns
// false, as a time.Timer's does once its callback has started. With reset
// set its handles have Reset, as a time.Timer has.
type lateEnv struct {
	now    time.Time
	sent   []wire.Envelope
	reset  bool
	timers []*lateTimer
}

type lateTimer struct {
	env   *lateEnv
	at    time.Time
	fn    func()
	armed bool // scheduled, neither fired nor stopped
}

func (t *lateTimer) Stop() bool {
	was := t.armed
	t.armed = false
	return was
}

type resettableLateTimer struct{ *lateTimer }

func (t resettableLateTimer) Reset(d time.Duration) bool {
	was := t.armed
	t.at, t.armed = t.env.now.Add(d), true
	return was
}

func (e *lateEnv) Now() time.Time { return e.now }

func (e *lateEnv) Send(to wire.NodeID, msg wire.Message) {
	e.sent = append(e.sent, wire.Envelope{To: to, Msg: msg})
}

func (e *lateEnv) SetTimer(d time.Duration, fn func()) TimerHandle {
	t := &lateTimer{env: e, at: e.now.Add(d), fn: fn, armed: true}
	e.timers = append(e.timers, t)
	if e.reset {
		return resettableLateTimer{t}
	}
	return t
}

// fireDue fires every armed timer due at now and returns their callbacks
// without running them.
func (e *lateEnv) fireDue() []func() {
	var fns []func()
	for _, t := range e.timers {
		if t.armed && !t.at.After(e.now) {
			t.armed = false
			fns = append(fns, t.fn)
		}
	}
	return fns
}

// lastQuery returns the most recent query sent, with its destination.
func (e *lateEnv) lastQuery(t *testing.T) wire.Envelope {
	t.Helper()
	for i := len(e.sent) - 1; i >= 0; i-- {
		if _, ok := e.sent[i].Msg.(wire.Query); ok {
			return e.sent[i]
		}
	}
	t.Fatal("no query sent")
	return wire.Envelope{}
}

// grantSent answers a sent query with a one-minute grant from its destination.
func grantSent(h *Host, sent wire.Envelope) {
	q := sent.Msg.(wire.Query)
	h.HandleMessage(sent.To, wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: true, Expire: time.Minute})
}

func TestStaleTimerFiringIgnored(t *testing.T) {
	for _, reset := range []bool{false, true} {
		name := "SetTimer"
		if reset {
			name = "Reset"
		}
		t.Run(name, func(t *testing.T) {
			env := &lateEnv{now: vclock.Epoch, reset: reset}
			h := NewHost("h0", env, nil, nil)
			if err := h.RegisterApp("a", HostAppConfig{
				Managers: []wire.NodeID{"m0", "m1", "m2"},
				Policy:   Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: time.Second, MaxAttempts: 2},
			}); err != nil {
				t.Fatal(err)
			}
			var got []Decision
			record := func(d Decision) { got = append(got, d) }

			h.Check("a", "u", wire.RightUse, record)
			first := h.byKey[checkKey{"a", "u", wire.RightUse}]
			// The round's timeout comes due and fires, but its callback has
			// not got Host.mu yet when the grant lands and finishes the check.
			env.now = env.now.Add(time.Second)
			late := env.fireDue()
			if len(late) != 1 {
				t.Fatalf("%d timers due, want the round's one", len(late))
			}
			grantSent(h, env.lastQuery(t))
			if len(got) != 1 || !got[0].Allowed {
				t.Fatalf("first check decided %+v, want one allow", got)
			}

			// The next check takes the recycled struct; then the stale
			// firing gets the lock.
			h.Check("a", "v", wire.RightUse, record)
			if h.byKey[checkKey{"a", "v", wire.RightUse}] != first {
				t.Fatal("the second check did not reuse the first check's struct")
			}
			rounds := h.Stats().QueryRounds
			for _, fn := range late {
				fn()
			}
			if st := h.Stats(); st.QueryTimeouts != 0 || st.QueryRounds != rounds || len(got) != 1 {
				t.Fatalf("stale firing timed the new round out: %d timeouts, %d rounds (want %d), decisions %+v",
					st.QueryTimeouts, st.QueryRounds, rounds, got)
			}

			// The new round's own timeout still fires, at its deadline.
			env.now = env.now.Add(time.Second - time.Nanosecond)
			if due := env.fireDue(); len(due) != 0 {
				t.Fatalf("%d timers due before the new round's deadline", len(due))
			}
			env.now = env.now.Add(time.Nanosecond)
			due := env.fireDue()
			if len(due) != 1 {
				t.Fatalf("%d timers due at the new round's deadline, want 1", len(due))
			}
			due[0]()
			if st := h.Stats(); st.QueryTimeouts != 1 || st.QueryRounds != rounds+1 {
				t.Fatalf("after the deadline: %d timeouts, %d rounds, want 1 and %d", st.QueryTimeouts, st.QueryRounds, rounds+1)
			}
			grantSent(h, env.lastQuery(t))
			if len(got) != 2 || !got[1].Allowed || got[1].Attempts != 2 {
				t.Fatalf("second check decided %+v, want an allow on attempt 2", got[1:])
			}
			if n := len(env.timers); reset && n != 1 {
				t.Errorf("%d timers set over three rounds on one struct, want 1", n)
			}
		})
	}
}

// afterFuncEnv is a live-style Env: the wall clock, time.AfterFunc timers,
// and a Send that keeps the last query for the test to answer.
type afterFuncEnv struct {
	mu    sync.Mutex
	query wire.Envelope
}

func (e *afterFuncEnv) Now() time.Time { return time.Now() }

func (e *afterFuncEnv) Send(to wire.NodeID, msg wire.Message) {
	if _, ok := msg.(wire.Query); ok {
		e.mu.Lock()
		e.query = wire.Envelope{To: to, Msg: msg}
		e.mu.Unlock()
	}
}

func (e *afterFuncEnv) SetTimer(d time.Duration, fn func()) TimerHandle { return time.AfterFunc(d, fn) }

// TestStaleTimerFiringRealTimers races real timeouts against the grants that
// finish their checks: each grant is delivered within a quarter of the
// timeout either side of it, so some timers fire while the grant holds
// Host.mu, and the next check reuses the struct. A check denied for want of
// an answer must have waited its whole timeout, and every check must be
// decided. The race is rare per check; scripts/ci.sh repeats this under
// -race.
func TestStaleTimerFiringRealTimers(t *testing.T) {
	const timeout = 2 * time.Millisecond
	env := &afterFuncEnv{}
	h := NewHost("h0", env, nil, nil)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0"},
		Policy:   Policy{CheckQuorum: 1, Te: time.Minute, QueryTimeout: timeout, MaxAttempts: 1},
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var answers sync.WaitGroup
	defer answers.Wait()
	for i := 0; i < 200; i++ {
		user := wire.UserID("u" + strconv.Itoa(i))
		decided := make(chan Decision, 1)
		start := time.Now()
		h.Check("a", user, wire.RightUse, func(d Decision) { decided <- d })
		env.mu.Lock()
		sent := env.query
		env.mu.Unlock()
		answers.Add(1)
		time.AfterFunc(timeout*3/4+time.Duration(rng.Int63n(int64(timeout/2))), func() {
			defer answers.Done()
			grantSent(h, sent)
		})
		select {
		case d := <-decided:
			if elapsed := time.Since(start); !d.Allowed && elapsed < timeout {
				t.Fatalf("check %d denied after %v, before its %v timeout", i, elapsed, timeout)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("check %d undecided after 5s", i)
		}
	}
}

// sendLog is a live-style Env that keeps every message a node sends with
// the wall-clock time it was sent, and counts the timer callbacks under way.
type sendLog struct {
	mu      sync.Mutex
	sends   []timedSend
	running atomic.Int64
}

type timedSend struct {
	at  time.Time
	to  wire.NodeID
	msg wire.Message
}

func (e *sendLog) Now() time.Time { return time.Now() }

func (e *sendLog) Send(to wire.NodeID, msg wire.Message) {
	e.mu.Lock()
	e.sends = append(e.sends, timedSend{time.Now(), to, msg})
	e.mu.Unlock()
}

func (e *sendLog) SetTimer(d time.Duration, fn func()) TimerHandle {
	return time.AfterFunc(d, func() {
		e.running.Add(1)
		defer e.running.Add(-1)
		fn()
	})
}

// TestStaleRecordFiringRealTimers races a manager's retransmission timers
// against the acks that finish their records. Each round vouches a new user
// to a new host, revokes it, and acks the Update from the peer and the
// RevokeNotice from the host within a quarter of the retry period either
// side of it, so some timers fire while an ack holds the manager's lock;
// the next round's update and notice reuse the records. Every message that
// goes to the same peer or host for the same update must come at least a
// retry period after the previous one: a stale firing that acted on a
// recycled record would retransmit its new update or notice early. The race
// is rare per round; scripts/ci.sh repeats this under -race.
func TestStaleRecordFiringRealTimers(t *testing.T) {
	const retry = 2 * time.Millisecond
	env := &sendLog{}
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp("a", ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1"}, CheckQuorum: 1, Te: time.Minute, UpdateRetry: retry,
	}); err != nil {
		t.Fatal(err)
	}
	m.Seed("a", "admin", wire.RightManage)
	rng := rand.New(rand.NewSource(1))
	var acks sync.WaitGroup
	defer acks.Wait()
	for i := 0; i < 150; i++ {
		user, host := wire.UserID("u"+strconv.Itoa(i)), wire.NodeID("h"+strconv.Itoa(i))
		m.Seed("a", user, wire.RightUse)
		m.HandleMessage(host, wire.Query{App: "a", User: user, Right: wire.RightUse, Nonce: uint64(i)})
		reached := make(chan wire.AdminReply, 1)
		m.Submit(wire.AdminOp{Op: wire.OpRevoke, App: "a", User: user, Right: wire.RightUse, Issuer: "admin"}, func(r wire.AdminReply) {
			if r.QuorumReached {
				reached <- r
			}
		})
		seq := wire.UpdateSeq{Origin: "m0", Counter: uint64(i + 1)}
		acked := make(chan struct{})
		acks.Add(1)
		time.AfterFunc(retry*3/4+time.Duration(rng.Int63n(int64(retry/2))), func() {
			defer acks.Done()
			m.HandleMessage("m1", wire.UpdateAck{Seq: seq})
			m.HandleMessage(host, wire.RevokeAck{App: "a", User: user, Seq: seq})
			close(acked)
		})
		select {
		case <-acked:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: acks undelivered after 5s", i)
		}
		select {
		case <-reached:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: update quorum not reached after 5s", i)
		}
	}
	// Let any firing Stop was too late for run its course.
	for deadline := time.Now().Add(5 * time.Second); env.running.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timer callbacks still running after 5s")
		}
	}

	env.mu.Lock()
	defer env.mu.Unlock()
	type key struct {
		to  wire.NodeID
		seq wire.UpdateSeq
	}
	last := map[key]time.Time{}
	notices, updates := 0, 0
	for _, s := range env.sends {
		var k key
		switch msg := s.msg.(type) {
		case wire.Update:
			k, updates = key{s.to, msg.Seq}, updates+1
		case wire.RevokeNotice:
			k, notices = key{s.to, msg.Seq}, notices+1
		default:
			continue
		}
		if prev, ok := last[k]; ok && s.at.Sub(prev) < retry {
			t.Errorf("%s to %s for %v sent %v after the previous one, before the %v retry period", s.msg.Kind(), s.to, k.seq, s.at.Sub(prev), retry)
		}
		last[k] = s.at
	}
	if updates < 150 || notices < 150 {
		t.Errorf("%d Updates and %d RevokeNotices sent, want at least 150 each", updates, notices)
	}
}
