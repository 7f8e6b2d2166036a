package core

// A check owns one timer for its whole life, recycled lives included (see
// Host.arm). On a live node a timer can fire while Host.mu is held by the
// response that finishes its check: Stop then returns false, and the
// callback runs later, once it gets the lock — by which time the struct may
// be serving another check. These tests deliver such a firing late and
// require the next check's round neither to time out early nor to lose its
// own timeout.

import (
	"math/rand"
	"strconv"
	"sync"
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
