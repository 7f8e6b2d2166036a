package core

import (
	"fmt"
	"maps"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wanac/internal/acl"
	"wanac/internal/audit"
	"wanac/internal/auth"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// Host is the application-host side of the protocol: the Access Control and
// Access Control Management components of Figure 1. It maintains
// ACL_cache(A) for each registered application, answers Invoke traffic by
// checking (and if necessary fetching) access rights, applies forwarded
// revocations, and implements the basic (Figure 2), extended (Figure 3),
// high-availability (Figure 4), and check-quorum (§3.3) variants according
// to each application's Policy.
//
// All exported methods are safe for concurrent use. Everything that takes a
// query round — message and timer callbacks, checks that miss the cache — is
// serialized under mu; a check that hits the cache decides without it (see
// cacheHit). Decision callbacks run outside the host lock, so they may call
// back into the host.
type Host struct {
	id      wire.NodeID
	env     Env
	tracer  trace.Tracer
	tracing bool          // false when tracer is trace.Nop: skip building events
	keyring *auth.Keyring // nil: trust claimed identities (simulation)

	// What a cache hit reads, none of it guarded by mu: the published
	// configuration, the cache (its own mutex is the hit's linearization
	// point), the nonce sequence and the hit count.
	view  atomic.Pointer[hostView]
	cache *acl.Cache
	nonce atomic.Uint64
	hits  atomic.Uint64 // cache-hit decisions; folded into Stats

	mu sync.Mutex
	// now is the clock reading of the current entry into the locked half of
	// the node, shared by everything the entry stamps: trace events, spans,
	// audit records, a round's sentAt, a decision's latency.
	now time.Time
	// pending indexes in-flight checks by the nonce of their current query
	// round; byKey coalesces concurrent checks for the same right.
	pending map[uint64]*check
	byKey   map[checkKey]*check
	// fires collects the callbacks of checks finished under the lock, to
	// invoke after it is released.
	fires []firing
	// freeChecks recycles finished check structs (and their grantedBy maps
	// and callback slices) so steady-state query rounds allocate nothing.
	freeChecks []*check
	// granters is grant's scratch for handing a check's confirming set to
	// the cache in one Put.
	granters []wire.NodeID
	// notes memoises the round's trace notes, so a round formats nothing.
	notes map[noteKey]string
	stats HostStats // every counter but the cache hits
}

// hostView is the host's configuration: the app table and the two optional
// observers. It lives only here, as one immutable value behind Host.view —
// RegisterApp, SetTelemetry and SetAudit publish a modified copy under mu —
// so a check reads a consistent set of the three with one atomic load and
// no lock. The hostApps the table points to are shared with the locked
// paths: policy, nameService and app never change after registration,
// everything else in a hostApp is protocol state guarded by Host.mu.
type hostView struct {
	apps map[wire.AppID]*hostApp
	// tel, when set, receives per-outcome counters/latency histograms and
	// check-lifecycle spans (see telemetry.go). Nil outside instrumented
	// runs; every hook is nil-guarded so the unused cost is one branch.
	tel *HostTelemetry
	// aud, when set, receives one provenance record per decision at the
	// same call sites as the stats/counters (see audit.go). Nil-guarded
	// like tel.
	aud *audit.Recorder
}

// publish installs a modified copy of the view; edit must replace, never
// mutate, anything the old view points to.
func (h *Host) publish(edit func(*hostView)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := *h.view.Load()
	edit(&v)
	h.view.Store(&v)
}

func (h *Host) tel() *HostTelemetry { return h.view.Load().tel }

// noteKey is a trace note that is a word and one or two small numbers:
// "round=a managers=b", or "confirmations=a" with b = -1.
type noteKey struct{ a, b int }

// memo returns m[k], formatting it on a miss and keeping it while m is
// small: the keys are a handful in practice, but round numbers are
// unbounded when MaxAttempts is 0 and host ids come off the wire.
func memo[K comparable](m map[K]string, k K, format func() string) string {
	s, ok := m[k]
	if !ok {
		s = format()
		if len(m) < 256 {
			m[k] = s
		}
	}
	return s
}

// firing is one deferred callback invocation.
type firing struct {
	cb func(Decision)
	d  Decision
}

type hostApp struct {
	policy      Policy
	nameService wire.NodeID
	app         Application

	managers []wire.NodeID
	// index is each manager's position in managers (rebuilt whenever the
	// set changes): membership on the response path, the bit a manager's
	// answer sets in its round, and the mask setName memoises by.
	index          map[wire.NodeID]int
	managersExpire time.Time // zero: static set, never expires
	// rr rotates the starting manager of first-round queries so load
	// spreads across Managers(A).
	rr           int
	resolving    bool
	resolveNonce uint64
	resolveTimer TimerHandle
	waiting      []*check
	// setNames memoises joinNodeSet over subsets of managers, keyed by the
	// subset's bitmask of positions (reset whenever the manager set changes).
	setNames map[uint64]string
	// busyUntil is the end of the app's admission backoff window: after a
	// manager sheds a query with Busy, new rounds for the app are deferred
	// until this instant so the host stops feeding an overloaded manager
	// set. Checks arriving inside the window park on a timer instead of
	// querying.
	busyUntil time.Time
}

type checkKey struct {
	app   wire.AppID
	user  wire.UserID
	right wire.Right
}

type check struct {
	key   checkKey
	nonce uint64
	// trace is the check-wide telemetry correlation ID: the nonce of the
	// first query round, carried in every Query of the check and echoed
	// by managers, joining host and manager spans (internal/telemetry).
	trace uint64
	// born is when the check was created, for decision-latency histograms.
	born     time.Time
	attempts int
	// asked and answered are the current round's managers, by position in
	// hostApp.managers: each is sent the round's nonce once and counts once,
	// whatever it answers and however often the network delivers it.
	asked, answered uint64
	grantedBy       map[wire.NodeID]struct{}
	denials         int // distinct managers that denied in the current round
	// backoffs counts busy/backoff deferrals over the check's lifetime
	// (audit evidence; deferrals do not consume R attempts).
	backoffs  int
	frozen    bool
	sentAt    time.Time
	minExpire time.Duration
	timer     TimerHandle
	callbacks []func(Decision)
}

// NewHost creates a host node. keyring may be nil, in which case claimed
// user identities in Invoke messages are trusted (appropriate inside the
// simulator, where authentication is assumed per §2.1).
func NewHost(id wire.NodeID, env Env, tracer trace.Tracer, keyring *auth.Keyring) *Host {
	if tracer == nil {
		tracer = trace.Nop{}
	}
	_, nop := tracer.(trace.Nop)
	h := &Host{
		id:      id,
		env:     env,
		tracer:  tracer,
		tracing: !nop,
		keyring: keyring,
		cache:   acl.NewCache(),
		pending: make(map[uint64]*check),
		byKey:   make(map[checkKey]*check),
		notes:   make(map[noteKey]string),
	}
	h.view.Store(&hostView{})
	return h
}

// ID returns the host's node id.
func (h *Host) ID() wire.NodeID { return h.id }

// RegisterApp configures access control for app on this host. It must be
// called before traffic for the app arrives.
func (h *Host) RegisterApp(app wire.AppID, cfg HostAppConfig) error {
	cfg.Policy = cfg.Policy.withDefaults()
	m := len(cfg.Managers)
	if m == 0 && cfg.NameService == "" {
		return fmt.Errorf("%w: app %s has neither managers nor a name service", ErrConfig, app)
	}
	if m > 0 {
		if err := cfg.Policy.validate(m); err != nil {
			return fmt.Errorf("app %s: %w", app, err)
		}
	} else if cfg.Policy.CheckQuorum < 1 {
		return fmt.Errorf("%w: app %s: check quorum %d", ErrConfig, app, cfg.Policy.CheckQuorum)
	}
	managers := make([]wire.NodeID, m)
	copy(managers, cfg.Managers)

	a := &hostApp{
		policy:      cfg.Policy,
		nameService: cfg.NameService,
		app:         cfg.App,
	}
	a.setManagers(managers)
	var err error
	h.publish(func(v *hostView) {
		if _, ok := v.apps[app]; ok {
			err = fmt.Errorf("%w: app %s already registered", ErrConfig, app)
			return
		}
		apps := maps.Clone(v.apps)
		if apps == nil {
			apps = make(map[wire.AppID]*hostApp, 1)
		}
		apps[app] = a
		v.apps = apps
	})
	return err
}

// setManagers installs the manager list (at most maxManagers, which callers
// check) and rebuilds the position index.
func (a *hostApp) setManagers(managers []wire.NodeID) {
	a.managers = managers
	a.index = make(map[wire.NodeID]int, len(managers))
	for i, m := range managers {
		a.index[m] = i
	}
	a.setNames = make(map[uint64]string)
}

// setName is joinNodeSet(set) for a set of current managers, formatted once
// per distinct subset.
func (a *hostApp) setName(set map[wire.NodeID]struct{}) string {
	var mask uint64
	for m := range set {
		i, ok := a.index[m]
		if !ok {
			return joinNodeSet(set)
		}
		mask |= 1 << i
	}
	return memo(a.setNames, mask, func() string { return joinNodeSet(set) })
}

// isManager reports whether id is a current member of Managers(A).
func (a *hostApp) isManager(id wire.NodeID) bool {
	_, ok := a.index[id]
	return ok
}

// Check asynchronously decides whether user holds right on app, invoking cb
// exactly once with the outcome. Concurrent checks for the same
// (app, user, right) are coalesced into one protocol exchange.
func (h *Host) Check(app wire.AppID, user wire.UserID, right wire.Right, cb func(Decision)) {
	now := h.env.Now()
	st := h.cacheHit(app, user, right, now, cb)
	if st == acl.Hit {
		return
	}
	// The miss keeps the reading the probe used: one clock read per check,
	// and a sentAt no later than the first Send (§3.2's conservative side).
	h.mu.Lock()
	h.locked(now, func() { h.checkLocked(app, user, right, st, cb) })
}

// cacheHit is the whole of a check that ACL_cache can decide — the common
// case the paper's O(C/Te) overhead argument rests on — and the only place
// a cache hit is emitted. It runs without Host.mu: it reads the clock once
// (now, shared by every emission), loads the published view once, probes the
// cache once, tells each attached observer once — one cache-hit trace event,
// which is the hit's decision event, one audit record, one count the hit's
// metrics are derived from — and invokes cb directly. The probe under the
// cache's own mutex is the hit's linearization point, so a revocation,
// reset or explicit denial that has removed the entry and returned is seen
// by every check that starts afterwards.
//
// Anything else is left to checkLocked, which takes the returned status
// instead of probing again: Miss or Expired (the expired entry is already
// gone), or zero when the app is not registered or the right invalid.
func (h *Host) cacheHit(app wire.AppID, user wire.UserID, right wire.Right, now time.Time, cb func(Decision)) acl.LookupStatus {
	v := h.view.Load()
	a := v.apps[app]
	if a == nil || !right.Valid() {
		return 0
	}
	entry, st := h.cache.LookupStatus(app, user, right, now)
	if st != acl.Hit {
		return st
	}
	// Cache hits never touch the wire; when spans or audit records need a
	// correlation ID, mint a local one from the nonce sequence (never
	// reused by query rounds). Zero otherwise, matching the untraced event
	// shape.
	var tid uint64
	if v.aud != nil || v.tel.spanning() {
		tid = h.nonce.Add(1)
	}
	if h.tracing {
		h.tracer.Emit(trace.Event{Time: now, Node: h.id, Type: trace.EventCacheHit, App: app, User: user, Trace: tid})
	}
	h.hits.Add(1)
	if t := v.tel; t != nil {
		t.hits.Add(1)
		if t.spanning() {
			t.span(telemetry.Span{
				Trace: tid, Node: string(h.id), Kind: "decision",
				Time: now, App: string(app), User: string(user),
				Right: right.String(), Note: outcomeNames[outcomeCacheHit],
			})
		}
	}
	if v.aud != nil {
		v.aud.RecordCacheHit(now, tid, string(app), string(user), right.String(), entry.Granters, entry.Limit)
	}
	// Refresh-ahead: if the entry is close to expiring, re-verify in the
	// background so the next post-expiry access does not pay a manager
	// round trip. The refresh is an ordinary check (coalesced via byKey)
	// whose grant, if any, replaces the entry with a fresh limit; a
	// revoked right simply fails to refresh, so the Te bound holds.
	if ra := a.policy.RefreshAhead; ra > 0 && !entry.Limit.IsZero() && entry.Limit.Sub(now) <= ra {
		h.withLock(func() {
			key := checkKey{app, user, right}
			if _, inflight := h.byKey[key]; !inflight && h.managersUsable(a, now) {
				c := h.newCheck(key)
				c.born = now
				h.byKey[key] = c
				h.startRound(a, c)
			}
		})
	}
	cb(Decision{Allowed: true, CacheHit: true})
	return acl.Hit
}

// withLock is an entry into the locked half of the node from the network
// or a timer: it reads the clock once, after the lock is acquired, and runs
// fn under the lock with that reading as h.now.
func (h *Host) withLock(fn func()) {
	h.mu.Lock()
	h.locked(h.env.Now(), fn)
}

// locked runs fn with h.mu held and now as the entry's clock reading, then
// releases the lock and fires the callbacks fn queued. They are copied out
// (to the stack, for the usual few) so the queue keeps its buffer from one
// entry to the next.
func (h *Host) locked(now time.Time, fn func()) {
	h.now = now
	fn()
	var buf [4]firing
	fires := append(buf[:0], h.fires...)
	clear(h.fires)
	h.fires = h.fires[:0]
	h.mu.Unlock()
	for _, f := range fires {
		f.cb(f.d)
	}
}

func (h *Host) fire(cb func(Decision), d Decision) {
	h.fires = append(h.fires, firing{cb: cb, d: d})
}

// checkLocked is a check the cache did not decide: st is what cacheHit's
// probe found. It coalesces onto an in-flight check for the same right or
// starts a query round.
func (h *Host) checkLocked(app wire.AppID, user wire.UserID, right wire.Right, st acl.LookupStatus, cb func(Decision)) {
	now := h.now
	v := h.view.Load()
	a, ok := v.apps[app]
	if !ok || !right.Valid() {
		h.recordDecision(Decision{}, now, now, audit.ReasonUnregisteredDeny)
		h.emit(trace.EventAccessDenied, app, user, "unregistered")
		if v.aud != nil {
			v.aud.Record(audit.Record{
				Kind: audit.KindDecision, T: now,
				App: string(app), User: string(user), Right: right.String(),
				Reason: audit.ReasonUnregisteredDeny,
			})
		}
		h.fire(cb, Decision{})
		return
	}
	if st == acl.Expired {
		h.emit(trace.EventCacheExpired, app, user, "")
	}

	key := checkKey{app, user, right}
	if c, ok := h.byKey[key]; ok {
		c.callbacks = append(c.callbacks, cb)
		return
	}
	c := h.newCheck(key)
	c.born = now
	c.callbacks = append(c.callbacks, cb)
	h.byKey[key] = c

	if h.managersUsable(a, now) {
		if now.Before(a.busyUntil) {
			// Inside the app's admission backoff window: park the round
			// until the managers asked to be tried again.
			h.deferCheck(a, c, a.busyUntil.Sub(now))
			return
		}
		h.startRound(a, c)
		return
	}
	a.waiting = append(a.waiting, c)
	h.resolveManagers(a, app)
}

// deferCheck parks a round-less check for delay, then resumes it with a
// fresh query round if it is still the live check for its key. The check
// stays in byKey (so concurrent Checks keep coalescing onto it) but not in
// pending (no round is in flight). The timer guard is the pair
// (byKey identity, nonce): finished checks leave byKey, and a recycled
// struct reused for the same key carries a later nonce — nonces are never
// reused — so a stale timer can never restart a foreign check.
func (h *Host) deferCheck(a *hostApp, c *check, delay time.Duration) {
	h.stats.Backoffs++
	c.backoffs++
	if t := h.tel(); t != nil {
		t.backoffs.Inc()
	}
	if h.tracing {
		h.emitT(trace.EventCheckBackoff, c.key.app, c.key.user, c.trace,
			"delay="+delay.String())
	}
	key, nonce := c.key, c.nonce
	c.timer = h.env.SetTimer(delay, func() {
		h.withLock(func() {
			cur, ok := h.byKey[key]
			if !ok || cur != c || c.nonce != nonce {
				return
			}
			a, ok := h.view.Load().apps[key.app]
			if !ok {
				h.emitT(trace.EventAccessDenied, key.app, key.user, c.trace, "unregistered")
				h.finish(c, Decision{}, audit.ReasonUnregisteredDeny)
				return
			}
			h.startRound(a, c)
		})
	})
}

// backoffJitter maps seed to a deterministic delay in [d/2, d): hosts that
// received the same Retry-After spread their retries across half the window
// instead of stampeding the manager at the same instant. Deterministic (a
// hash of the seed, not a PRNG) so simulation runs stay reproducible.
func backoffJitter(seed uint64, d time.Duration) time.Duration {
	z := seed + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / (1 << 53) // [0, 1)
	return d/2 + time.Duration(frac*float64(d)/2)
}

// onBusy handles a manager's load-shed reply: cancel the current round and
// retry after a jittered fraction of the advertised Retry-After, extending
// the app's busy window so new checks defer instead of piling on.
func (h *Host) onBusy(from wire.NodeID, m wire.Busy) {
	c, ok := h.pending[m.Nonce]
	if !ok || c.key.app != m.App {
		return
	}
	a, ok := h.view.Load().apps[c.key.app]
	if !ok || !a.isManager(from) {
		return
	}
	h.stats.BusyReplies++
	if t := h.tel(); t != nil {
		t.busyReplies.Inc()
	}
	retry := m.RetryAfter
	if retry <= 0 {
		retry = a.policy.QueryTimeout
	}
	const maxHostBackoff = 30 * time.Second // defensive: a garbled Retry-After must not park the app
	if retry > maxHostBackoff {
		retry = maxHostBackoff
	}
	delay := backoffJitter(m.Nonce, retry)
	if until := h.now.Add(delay); until.After(a.busyUntil) {
		a.busyUntil = until
	}
	// Cancel the in-flight round: stop its timeout, forget its nonce. The
	// backoff retry does not consume one of the policy's R attempts — the
	// manager explicitly asked to be tried later, which is not a failure of
	// reachability (Figure 4's R counts unanswered rounds).
	if c.timer != nil {
		c.timer.Stop()
	}
	delete(h.pending, c.nonce)
	if c.attempts > 0 {
		c.attempts--
	}
	h.deferCheck(a, c, delay)
}

// newCheck takes a check struct from the free list (retaining its cleared
// grantedBy map and callback slice) or allocates a fresh one. startRound
// and finish are the paired producers/consumers of the list.
func (h *Host) newCheck(key checkKey) *check {
	if n := len(h.freeChecks); n > 0 {
		c := h.freeChecks[n-1]
		h.freeChecks[n-1] = nil
		h.freeChecks = h.freeChecks[:n-1]
		c.key = key
		return c
	}
	return &check{key: key}
}

// maxFreeChecks bounds the free list; beyond it, finished checks are left
// for the GC (a burst of coalesced checks should not pin memory forever).
const maxFreeChecks = 64

// recycleCheck resets a finished check and returns it to the free list.
// Callers must ensure no references escape: finish clears the callbacks and
// pending/byKey entries, and stale timers look checks up by nonce (which is
// never reused), so a recycled struct can never be reached by old state.
func (h *Host) recycleCheck(c *check) {
	if len(h.freeChecks) >= maxFreeChecks {
		return
	}
	for i := range c.callbacks {
		c.callbacks[i] = nil
	}
	callbacks := c.callbacks[:0]
	grantedBy := c.grantedBy
	clear(grantedBy)
	*c = check{grantedBy: grantedBy, callbacks: callbacks}
	h.freeChecks = append(h.freeChecks, c)
}

func (h *Host) managersUsable(a *hostApp, now time.Time) bool {
	if len(a.managers) == 0 {
		return false
	}
	if a.managersExpire.IsZero() {
		return true
	}
	return now.Before(a.managersExpire)
}

// startRound begins one query round (Figure 2's loop body, generalized to
// quorum C) under a fresh nonce. The first round asks a rotating window of C
// managers — checking "involves communication with at least C managers",
// giving the O(C/Te) overhead and O(C) delay of §4.1 — and a round that
// follows a timeout asks the full manager set. onResponse decides the round,
// and widens a first round in place when its window cannot.
func (h *Host) startRound(a *hostApp, c *check) {
	c.nonce = h.nonce.Add(1)
	if c.trace == 0 {
		c.trace = c.nonce
	}
	c.attempts++
	if c.grantedBy == nil {
		c.grantedBy = make(map[wire.NodeID]struct{}, a.policy.CheckQuorum)
	} else {
		clear(c.grantedBy)
	}
	c.asked, c.answered, c.denials = 0, 0, 0
	c.sentAt = h.now
	c.minExpire = 0
	h.pending[c.nonce] = c

	m := len(a.managers)
	count := m
	start := 0
	if c.attempts == 1 && a.policy.CheckQuorum < m {
		count = a.policy.CheckQuorum
		start = a.rr % m
		a.rr += count
	}
	h.stats.QueryRounds++
	if t := h.tel(); t != nil {
		t.rounds.Inc()
	}
	h.ask(a, c, start, count)

	nonce := c.nonce
	c.timer = h.env.SetTimer(a.policy.QueryTimeout, func() {
		h.withLock(func() { h.onQueryTimeout(nonce) })
	})
}

// ask sends the round's query to the first count managers, in rotation order
// from position start, that the round has not asked yet; its span and trace
// event cite how many the round has then asked in all.
func (h *Host) ask(a *hostApp, c *check, start, count int) {
	// Boxed once for the sends.
	var q wire.Message = wire.Query{App: c.key.app, User: c.key.user, Right: c.key.right, Nonce: c.nonce, Trace: c.trace}
	m := len(a.managers)
	for i := 0; i < m && count > 0; i++ {
		p := (start + i) % m
		if c.asked&(1<<p) == 0 {
			c.asked |= 1 << p
			h.env.Send(a.managers[p], q)
			count--
		}
	}
	asked := bits.OnesCount64(c.asked)
	if t := h.tel(); t.spanning() {
		t.span(telemetry.Span{
			Trace: c.trace, Node: string(h.id), Kind: "round",
			Time: h.now, App: string(c.key.app), User: string(c.key.user),
			Right: c.key.right.String(), Round: c.attempts, Nonce: c.nonce,
			Note: "managers=" + strconv.Itoa(asked),
		})
	}
	if h.tracing {
		h.emitT(trace.EventQuerySent, c.key.app, c.key.user, c.trace, memo(h.notes, noteKey{c.attempts, asked}, func() string {
			return "round=" + strconv.Itoa(c.attempts) + " managers=" + strconv.Itoa(asked)
		}))
	}
}

func (h *Host) onQueryTimeout(nonce uint64) {
	c, ok := h.pending[nonce]
	if !ok || c.nonce != nonce {
		return
	}
	delete(h.pending, nonce)
	v := h.view.Load()
	a, ok := v.apps[c.key.app]
	if !ok {
		h.emitT(trace.EventAccessDenied, c.key.app, c.key.user, c.trace, "unregistered")
		h.finish(c, Decision{}, audit.ReasonUnregisteredDeny)
		return
	}
	h.stats.QueryTimeouts++
	if t := v.tel; t != nil {
		t.timeouts.Inc()
		if t.spanning() {
			t.span(telemetry.Span{
				Trace: c.trace, Node: string(h.id), Kind: "timeout",
				Time: h.now, App: string(c.key.app), User: string(c.key.user),
				Right: c.key.right.String(), Round: c.attempts, Nonce: c.nonce,
			})
		}
	}
	if h.tracing {
		h.emitT(trace.EventQueryTimeout, c.key.app, c.key.user, c.trace, "round="+strconv.Itoa(c.attempts))
	}
	h.retryOrGiveUp(a, c)
}

// retryOrGiveUp either starts another round or applies the R-attempt policy
// (deny, or Figure 4's default allow).
func (h *Host) retryOrGiveUp(a *hostApp, c *check) {
	if a.policy.MaxAttempts > 0 && c.attempts >= a.policy.MaxAttempts {
		if a.policy.DefaultAllow {
			if h.tracing {
				h.emitT(trace.EventAccessDefault, c.key.app, c.key.user, c.trace,
					"attempts="+strconv.Itoa(c.attempts))
			}
			h.finish(c, Decision{
				Allowed: true, DefaultAllowed: true,
				Attempts: c.attempts, Frozen: c.frozen,
			}, audit.ReasonDefaultAllow)
			return
		}
		h.emitT(trace.EventAccessDenied, c.key.app, c.key.user, c.trace, "unreachable")
		h.finish(c, Decision{Attempts: c.attempts, Frozen: c.frozen}, audit.ReasonUnreachableDeny)
		return
	}
	h.startRound(a, c)
}

// finish resolves a check, queues its callbacks, and recycles the struct.
// reason is the audit provenance of the decision; the matching record is
// emitted before the check's evidence is recycled away.
func (h *Host) finish(c *check, d Decision, reason audit.Reason) {
	v := h.view.Load()
	now := h.now
	h.recordDecision(d, c.born, now, reason)
	if v.aud != nil {
		h.auditFinish(v, c, d, reason)
	}
	if v.tel.spanning() {
		v.tel.span(telemetry.Span{
			Trace: c.trace, Node: string(h.id), Kind: "decision",
			Time: now, App: string(c.key.app), User: string(c.key.user),
			Right: c.key.right.String(), Round: c.attempts,
			DurNs: durationSince(c.born, now), Note: outcomeNames[outcomeIndex(d)],
		})
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	delete(h.pending, c.nonce)
	delete(h.byKey, c.key)
	for _, cb := range c.callbacks {
		h.fire(cb, d)
	}
	h.recycleCheck(c)
}

// HandleMessage implements the network handler: the "when ... from network"
// clauses of Figures 2 and 3 plus name-service and sealed-traffic handling.
func (h *Host) HandleMessage(from wire.NodeID, msg wire.Message) {
	// Application traffic is a Check with a reply attached: like Check it
	// enters unlocked, so an Invoke the cache can decide never takes h.mu.
	switch m := msg.(type) {
	case wire.Invoke:
		if h.keyring != nil {
			// Authenticated deployments accept only sealed traffic.
			h.env.Send(from, wire.InvokeReply{App: m.App, ReqID: m.ReqID})
			return
		}
		h.onInvoke(from, m)
		return
	case wire.Sealed:
		h.onSealed(from, m)
		return
	}
	h.withLock(func() {
		switch m := msg.(type) {
		case wire.Response:
			h.onResponse(from, m)
		case wire.Busy:
			h.onBusy(from, m)
		case wire.RevokeNotice:
			h.onRevokeNotice(from, m)
		case wire.ResolveResponse:
			h.onResolveResponse(from, m)
		}
	})
}

func (h *Host) onResponse(from wire.NodeID, m wire.Response) {
	c, ok := h.pending[m.Nonce]
	if !ok {
		// Stale: the round timed out before this response arrived; §3.2
		// requires discarding such responses so the expiration timestamp
		// stays conservative.
		return
	}
	if c.key.app != m.App || c.key.user != m.User || c.key.right != m.Right {
		return
	}
	v := h.view.Load()
	a, ok := v.apps[c.key.app]
	if !ok {
		return
	}
	// Only current members of Managers(A) may influence a decision; a
	// response from anyone else (a confused host, a spoofed node id) is
	// discarded. With authentication enabled the transport already binds
	// sender identities, making this check authoritative.
	i, ok := a.index[from]
	if !ok {
		return
	}
	if v.tel.spanning() {
		note := outcomeNames[outcomeDenied]
		switch {
		case m.Frozen:
			note = "frozen"
		case m.Granted:
			note = "granted"
		}
		v.tel.span(telemetry.Span{
			Trace: c.trace, Node: string(h.id), Kind: "reply",
			Time: h.now, App: string(c.key.app), User: string(c.key.user),
			Right: c.key.right.String(), Peer: string(from),
			Round: c.attempts, Nonce: m.Nonce, Note: note,
		})
	}
	// A manager counts once per round: a datagram the network duplicated is
	// one manager's word, not two.
	if c.answered&(1<<i) != 0 {
		return
	}
	c.answered |= 1 << i
	total, quorum := len(a.managers), a.policy.CheckQuorum
	switch {
	case m.Frozen:
		c.frozen = true
	case m.Granted:
		c.grantedBy[from] = struct{}{}
		if c.minExpire == 0 || (m.Expire > 0 && m.Expire < c.minExpire) {
			c.minExpire = m.Expire
		}
		if len(c.grantedBy) >= quorum {
			h.grant(c)
			return
		}
	default:
		c.denials++
		// More than M−C managers deny, so no C of the M can grant, however
		// many were asked — the arithmetic of §3.3's update quorum. Drop any
		// cached grant now rather than waiting out its expiry (matters for
		// refresh-ahead checks, where a valid entry is still cached).
		if c.denials > total-quorum {
			h.cache.Remove(c.key.app, c.key.user, c.key.right)
			h.emitT(trace.EventAccessDenied, c.key.app, c.key.user, c.trace, "revoked")
			h.finish(c, Decision{Attempts: c.attempts, Frozen: c.frozen}, audit.ReasonQuorumDeny)
			return
		}
	}
	// The managers asked so far can no longer decide the round, whatever the
	// ones still to answer say (a denial from one manager does not mean the
	// right is revoked everywhere): widen it in place to the managers not yet
	// asked. Same nonce, same timer, no attempt consumed; sentAt stays the
	// first send, so sentAt + te is only more conservative for the later
	// answers (§3.2). With all M asked, the round waits for its timeout.
	waiting := bits.OnesCount64(c.asked &^ c.answered)
	if bits.OnesCount64(c.asked) < total && len(c.grantedBy)+waiting < quorum && c.denials+waiting <= total-quorum {
		h.ask(a, c, 0, total)
	}
}

// grant caches the confirmed right and resolves the check. The expiration
// limit is sentAt + te, which equals now + te - δ for δ = now - sentAt, the
// conservative transmission-delay adjustment of §3.2.
func (h *Host) grant(c *check) {
	var limit time.Time
	if c.minExpire > 0 {
		limit = c.sentAt.Add(c.minExpire)
	}
	h.granters = h.granters[:0]
	for m := range c.grantedBy {
		h.granters = append(h.granters, m)
	}
	h.cache.Put(c.key.app, c.key.user, c.key.right, limit, h.granters...)
	if h.tracing {
		h.emitT(trace.EventGrantCached, c.key.app, c.key.user, c.trace, memo(h.notes, noteKey{len(c.grantedBy), -1}, func() string {
			return "confirmations=" + strconv.Itoa(len(c.grantedBy))
		}))
	}
	h.emitT(trace.EventAccessAllowed, c.key.app, c.key.user, c.trace, "quorum")
	h.finish(c, Decision{
		Allowed:       true,
		Confirmations: len(c.grantedBy),
		Attempts:      c.attempts,
		Frozen:        c.frozen,
	}, audit.ReasonQuorumAllow)
}

func (h *Host) onRevokeNotice(from wire.NodeID, m wire.RevokeNotice) {
	// Only managers of the application may flush cache entries; otherwise
	// any node could deny service by spraying RevokeNotices.
	v := h.view.Load()
	a, ok := v.apps[m.App]
	if !ok || !a.isManager(from) {
		return
	}
	removed := h.cache.Remove(m.App, m.User, m.Right)
	if removed {
		h.stats.RevokeNotices++
		if v.tel != nil {
			v.tel.revokes.Inc()
		}
		h.emit(trace.EventRevokeApplied, m.App, m.User, "")
	}
	// Ack regardless: the manager needs to stop retransmitting even if the
	// entry was already gone (§3.1: removal of a non-existent right is a
	// no-op).
	h.env.Send(from, wire.RevokeAck{App: m.App, User: m.User, Seq: m.Seq})
}

func (h *Host) onInvoke(from wire.NodeID, m wire.Invoke) {
	h.Check(m.App, m.User, wire.RightUse, func(d Decision) {
		h.serveInvoke(from, m, d)
	})
}

func (h *Host) onSealed(from wire.NodeID, m wire.Sealed) {
	if h.keyring == nil {
		return // cannot verify: drop
	}
	inner, err := auth.VerifyClaim(h.keyring, m)
	if err != nil {
		return // forged or unknown: drop silently
	}
	if inv, ok := inner.(wire.Invoke); ok {
		h.onInvoke(from, inv)
	}
}

// serveInvoke runs outside the lock (it is registered as a check callback),
// so it may call the wrapped application directly.
func (h *Host) serveInvoke(from wire.NodeID, m wire.Invoke, d Decision) {
	if !d.Allowed {
		h.env.Send(from, wire.InvokeReply{App: m.App, ReqID: m.ReqID})
		return
	}
	var out []byte
	if a := h.view.Load().apps[m.App]; a != nil && a.app != nil {
		out = a.app.Serve(m.User, m.Payload)
	}
	h.env.Send(from, wire.InvokeReply{App: m.App, ReqID: m.ReqID, Allowed: true, Output: out})
}

// resolveManagers queries the trusted name service for Managers(A) (§3.2).
// Waiting checks accumulate resolve timeouts as attempts so that bounded
// policies still terminate when the name service is unreachable.
func (h *Host) resolveManagers(a *hostApp, app wire.AppID) {
	if a.resolving || a.nameService == "" {
		if a.nameService == "" {
			// No managers and no name service: deny all waiting checks.
			for _, c := range a.waiting {
				h.emitT(trace.EventAccessDenied, app, c.key.user, c.trace, "resolve-failed")
				h.finish(c, Decision{}, audit.ReasonResolveDeny)
			}
			a.waiting = nil
		}
		return
	}
	a.resolving = true
	a.resolveNonce = h.nonce.Add(1)
	h.env.Send(a.nameService, wire.ResolveRequest{App: app, Nonce: a.resolveNonce})
	a.resolveTimer = h.env.SetTimer(a.policy.QueryTimeout, func() {
		h.withLock(func() { h.onResolveTimeout(a, app) })
	})
}

func (h *Host) onResolveTimeout(a *hostApp, app wire.AppID) {
	if !a.resolving {
		return
	}
	a.resolving = false
	// Count the failed resolution as an attempt for each waiting check.
	remaining := a.waiting[:0]
	for _, c := range a.waiting {
		c.attempts++
		if a.policy.MaxAttempts > 0 && c.attempts >= a.policy.MaxAttempts {
			if a.policy.DefaultAllow {
				h.emitT(trace.EventAccessDefault, app, c.key.user, c.trace, "resolve-failed")
				h.finish(c, Decision{Allowed: true, DefaultAllowed: true, Attempts: c.attempts},
					audit.ReasonResolveAllow)
			} else {
				h.emitT(trace.EventAccessDenied, app, c.key.user, c.trace, "resolve-failed")
				h.finish(c, Decision{Attempts: c.attempts}, audit.ReasonResolveDeny)
			}
			continue
		}
		remaining = append(remaining, c)
	}
	a.waiting = remaining
	if len(a.waiting) > 0 {
		h.resolveManagers(a, app)
	}
}

func (h *Host) onResolveResponse(from wire.NodeID, m wire.ResolveResponse) {
	a, ok := h.view.Load().apps[m.App]
	if !ok || !a.resolving || m.Nonce != a.resolveNonce {
		return
	}
	// Only the trusted name service may install a manager set (§3.2).
	if from != a.nameService {
		return
	}
	if a.resolveTimer != nil {
		a.resolveTimer.Stop()
	}
	if len(m.Managers) == 0 || len(m.Managers) > maxManagers {
		// Name service knows no managers (or more than a round can track):
		// treat like a resolve timeout.
		h.onResolveTimeout(a, m.App)
		return
	}
	a.resolving = false
	a.setManagers(append([]wire.NodeID(nil), m.Managers...))
	if m.TTL > 0 {
		a.managersExpire = h.now.Add(m.TTL)
	} else {
		a.managersExpire = time.Time{}
	}
	waiting := a.waiting
	a.waiting = nil
	for _, c := range waiting {
		// The resolve consumed rounds; startRound will add one more.
		c.attempts--
		if c.attempts < 0 {
			c.attempts = 0
		}
		h.startRound(a, c)
	}
}

// SetManagers replaces the manager set for app directly (the static
// counterpart of name-service driven reconfiguration, §3.2). The policy's
// check quorum must fit the new set.
func (h *Host) SetManagers(app wire.AppID, managers []wire.NodeID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.view.Load().apps[app]
	if !ok {
		return fmt.Errorf("%w: unknown app %s", ErrConfig, app)
	}
	if err := a.policy.validate(len(managers)); err != nil {
		return fmt.Errorf("app %s: %w", app, err)
	}
	a.setManagers(append([]wire.NodeID(nil), managers...))
	a.managersExpire = time.Time{}
	return nil
}

// PurgeExpired drops expired cache entries; call it periodically in
// long-running deployments (§3.2).
func (h *Host) PurgeExpired() int {
	return h.cache.PurgeExpired(h.env.Now())
}

// SetCacheLimit bounds the total number of cached entries across all
// applications on this host (0 = unbounded); earliest-expiring entries are
// evicted first (§3.2's memory-saving motivation).
func (h *Host) SetCacheLimit(n int) { h.cache.SetMaxEntries(n) }

// CacheLen reports the number of cached entries (for tests and metrics).
func (h *Host) CacheLen() int { return h.cache.Len() }

// CacheSnapshot returns the cached entries with their expiration limits
// (export hook for invariant checkers: the harness's cache-hygiene oracle
// asserts no entry survives a purge past its limit).
func (h *Host) CacheSnapshot() []acl.Entry { return h.cache.Snapshot() }

// LocalNow returns the host's local clock reading. Local clocks may drift
// within the bound b (§3.2); expiration limits in CacheSnapshot are in this
// clock's frame, so oracles must compare against LocalNow, not global time.
func (h *Host) LocalNow() time.Time { return h.env.Now() }

// CacheGranters reports how many managers vouch for a cached entry.
func (h *Host) CacheGranters(app wire.AppID, user wire.UserID, right wire.Right) int {
	return h.cache.Granters(app, user, right)
}

// Reset clears all volatile state, modeling a host crash + recovery (§3.4:
// "ACL_cache(A) can simply be initialized to null and refilled using the
// normal algorithm"). In-flight checks are dropped without callbacks, as a
// real crash would drop them.
func (h *Host) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cache.Clear()
	// byKey is the superset of live checks: every pending check is in it,
	// and so are busy-deferred checks whose round was cancelled (they hold
	// a backoff timer but no pending entry).
	for _, c := range h.byKey {
		if c.timer != nil {
			c.timer.Stop()
		}
	}
	h.pending = make(map[uint64]*check)
	h.byKey = make(map[checkKey]*check)
	for _, a := range h.view.Load().apps {
		a.waiting = nil
		a.resolving = false
		a.rr = 0
		a.busyUntil = time.Time{}
		if a.resolveTimer != nil {
			a.resolveTimer.Stop()
		}
	}
}

func (h *Host) emit(t trace.EventType, app wire.AppID, user wire.UserID, note string) {
	h.tracer.Emit(trace.Event{
		Time: h.now, Node: h.id, Type: t, App: app, User: user, Note: note,
	})
}

// emitT is emit for events inside a check's lifecycle: it carries the
// check's causal trace ID so flight recordings and span streams join on the
// same key.
func (h *Host) emitT(t trace.EventType, app wire.AppID, user wire.UserID, traceID uint64, note string) {
	h.tracer.Emit(trace.Event{
		Time: h.now, Node: h.id, Type: t, App: app, User: user, Trace: traceID, Note: note,
	})
}
