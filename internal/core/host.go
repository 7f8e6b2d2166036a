package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanac/internal/acl"
	"wanac/internal/auth"
	"wanac/internal/flight"
	"wanac/internal/quorum"
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
	id        wire.NodeID
	env       link
	tracer    trace.Tracer
	tracing   bool          // false when tracer is trace.Nop: skip building events
	hitEvents bool          // false when tracer drops cache hits: build no hit event
	keyring   *auth.Keyring // nil: trust claimed identities (simulation)

	// What a cache hit reads, none of it guarded by mu: the published
	// configuration, the cache (its own mutex is the hit's linearization
	// point), the nonce sequence and the counts.
	view   atomic.Pointer[hostView]
	cache  *acl.Cache
	nonce  atomic.Uint64
	counts hostCounts

	mu sync.Mutex
	// now is the clock reading of the current entry into the locked half of
	// the node, shared by everything the entry stamps: trace events, audit
	// records, a round's sentAt, a decision's latency.
	now time.Time
	// pending indexes in-flight checks by the nonce of their current query
	// round; byKey coalesces concurrent checks for the same right.
	pending map[uint64]*check
	byKey   map[checkKey]*check
	// fires collects the callbacks of checks finished under the lock, to
	// invoke after it is released.
	fires []firing
	// freeChecks recycles finished check structs (with their callback
	// slices and timers) so steady-state query rounds allocate nothing. A
	// struct is allocated only when the list is empty, so the list never
	// holds more than the most checks ever in flight at once.
	freeChecks []*check
	// granters is grant's scratch for handing a check's confirming set to
	// the cache in one Put.
	granters []wire.NodeID
	// query and ack are the round ask is sending and the RevokeAck being
	// sent, built in place to be lent (see LentSender).
	query wire.Query
	ack   wire.RevokeAck
	// latency holds the decision latency histograms by outcome, nil until
	// InstrumentHost (the cache hit's is derived from its count).
	latency [outcomeCount]*telemetry.Histogram
}

// hostView is the host's configuration: the app table and the optional
// journal taking decisions. It lives only here, as one immutable value behind
// Host.view — RegisterApp and SetAudit publish a modified copy under mu —
// so a check reads a consistent pair with one atomic load and no lock. The
// hostApps the table points to are shared with the locked paths: policy,
// nameService and app never change after registration, everything else in
// a hostApp is protocol state guarded by Host.mu.
type hostView struct {
	apps map[wire.AppID]*hostApp
	// aud, when set, receives one provenance record per decision at the
	// same call sites as the counts (see audit.go). Nil outside
	// instrumented runs; every hook is nil-guarded so the unused cost is
	// one branch.
	aud *flight.Recorder
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

// firing is one deferred callback invocation.
type firing struct {
	cb func(Decision)
	d  Decision
}

type hostApp struct {
	policy      Policy
	nameService wire.NodeID
	app         Application
	// cache is the app's ACL_cache, the one table a hit probes.
	cache *acl.Table

	// managers is Managers(A); a manager's index in it is its position in
	// the app's rounds and in the sets setName memoises by.
	managers       []wire.NodeID
	managersExpire time.Time // zero: static set, never expires
	// rr rotates the starting manager of first-round queries so load
	// spreads across Managers(A).
	rr           int
	resolving    bool
	resolveNonce uint64
	resolveTimer TimerHandle
	waiting      []*check
	// sys is the quorum system of C over the current managers.
	sys quorum.System
	// setNames memoises joinNodeSet over subsets of managers, keyed by the
	// subset's set of positions (reset whenever the manager set changes).
	setNames map[quorum.Set]string
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
	// trace is the check-wide correlation ID: the nonce of the first query
	// round, carried in every Query of the check and echoed by managers,
	// joining host and manager flight events and audit records.
	trace uint64
	// born is when the check was created, for decision-latency histograms.
	born     time.Time
	attempts int
	// round is the current round's managers, by position in
	// hostApp.managers: each is sent the round's nonce once and counts once.
	round quorum.Round
	// backoffs counts busy/backoff deferrals over the check's lifetime
	// (audit evidence; deferrals do not consume R attempts).
	backoffs  int
	frozen    bool
	sentAt    time.Time
	minExpire time.Duration
	// callbacks starts in first, so a check with one caller, or with a
	// second coalesced onto it, needs no slice of its own; both outlive a
	// recycled struct.
	callbacks []func(Decision)
	first     [2]func(Decision)

	// timer is the check's one timer, armed for a round's timeout or a busy
	// backoff, running onCheckTimer; it outlives a recycled struct.
	timer timer
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
		id:        id,
		env:       newLink(env),
		tracer:    tracer,
		tracing:   !nop,
		hitEvents: !trace.Drops(tracer, trace.EventCacheHit),
		keyring:   keyring,
		cache:     acl.NewCache(),
		pending:   make(map[uint64]*check),
		byKey:     make(map[checkKey]*check),
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
	sys, err := cfg.Policy.validate(m)
	switch {
	case m == 0 && cfg.NameService == "":
		return fmt.Errorf("%w: app %s has neither managers nor a name service", ErrConfig, app)
	case m > 0 && err != nil:
		return fmt.Errorf("app %s: %w", app, err)
	case m == 0 && cfg.Policy.CheckQuorum < 1:
		return fmt.Errorf("%w: app %s: check quorum %d", ErrConfig, app, cfg.Policy.CheckQuorum)
	}

	a := &hostApp{
		policy:      cfg.Policy,
		nameService: cfg.NameService,
		app:         cfg.App,
		cache:       h.cache.Table(app),
	}
	a.setManagers(cfg.Managers, sys)
	var dup error
	h.publish(func(v *hostView) {
		if _, ok := v.apps[app]; ok {
			dup = fmt.Errorf("%w: app %s already registered", ErrConfig, app)
			return
		}
		apps := maps.Clone(v.apps)
		if apps == nil {
			apps = make(map[wire.AppID]*hostApp, 1)
		}
		apps[app] = a
		v.apps = apps
	})
	return dup
}

// setManagers installs a copy of the manager list with its quorum system,
// which callers validate.
func (a *hostApp) setManagers(managers []wire.NodeID, sys quorum.System) {
	a.managers, a.sys = slices.Clone(managers), sys
	a.setNames = make(map[quorum.Set]string)
}

// setName is joinNodeSet for a set of current managers, given by position,
// formatted once per distinct subset while there are a few hundred.
func (a *hostApp) setName(set quorum.Set) string {
	s, ok := a.setNames[set]
	if !ok {
		s = joinNodeSet(a.managers, set)
		if len(a.setNames) < 256 {
			a.setNames[set] = s
		}
	}
	return s
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
	h.now = now
	h.checkLocked(app, user, right, st, cb)
	h.unlock()
}

// cacheHit is the whole of a check that ACL_cache can decide — the common
// case the paper's O(C/Te) overhead argument rests on — and the only place
// a cache hit is emitted. It runs without Host.mu: it reads the clock once
// (now, shared by every emission), loads the published view once, probes the
// app's table once for the entry's time left and granters, tells each
// attached observer once — one count the hit's metrics are derived from, one
// audit record, and a cache-hit trace event, the hit's decision event, only
// if the tracer keeps one (h.hitEvents) — and invokes cb directly. The probe
// under the cache's own mutex is the hit's linearization point, so a
// revocation, reset or explicit denial that has removed the entry and
// returned is seen by every check that starts afterwards.
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
	left, granters, st := a.cache.Lookup(user, right, now)
	if st != acl.Hit {
		return st
	}
	// Cache hits never touch the wire; when audit records need a
	// correlation ID, mint a local one from the nonce sequence (never
	// reused by query rounds). Zero otherwise, matching the untraced event
	// shape.
	var tid uint64
	if v.aud != nil {
		tid = h.nonce.Add(1)
	}
	if h.hitEvents {
		h.tracer.Emit(trace.Event{Time: now, Node: h.id, Type: trace.EventCacheHit, App: app, User: user, Trace: tid})
	}
	h.counts.decided[flight.ReasonCacheHit].Add(1)
	if v.aud != nil {
		v.aud.RecordCacheHit(now, tid, string(app), string(user), right, granters, left)
	}
	// Refresh-ahead: if the entry is close to expiring, re-verify in the
	// background so the next post-expiry access does not pay a manager
	// round trip. The refresh is an ordinary check (coalesced via byKey)
	// whose grant, if any, replaces the entry with a fresh limit; a
	// revoked right simply fails to refresh, so the Te bound holds.
	if ra := a.policy.RefreshAhead; ra > 0 && left <= ra && left != acl.Forever {
		h.lock()
		key := checkKey{app, user, right}
		if _, inflight := h.byKey[key]; !inflight && h.managersUsable(a, now) {
			c := h.newCheck(key)
			c.born = now
			h.byKey[key] = c
			h.startRound(a, c)
		}
		h.unlock()
	}
	cb(Decision{Allowed: true, CacheHit: true})
	return acl.Hit
}

// lock enters the locked half of the node from the network or a timer: it
// takes h.mu, then reads the clock once as the entry's h.now.
func (h *Host) lock() {
	h.mu.Lock()
	h.now = h.env.Now()
}

// unlock ends the entry: it releases h.mu and fires the queued callbacks,
// copied out (to the stack, for the usual few) so the queue keeps its buffer.
func (h *Host) unlock() {
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
	a, registered := h.view.Load().apps[app]
	if st == acl.Expired {
		h.emit(trace.EventCacheExpired, app, user)
	}

	key := checkKey{app, user, right}
	if c, ok := h.byKey[key]; ok {
		c.callbacks = append(c.callbacks, cb)
		return
	}
	c := h.newCheck(key)
	c.born = now
	c.callbacks = append(c.callbacks, cb)
	if !registered || !right.Valid() {
		// Apps are only ever added, so no check of this key was in flight:
		// the deny finishes a check of its own.
		h.finish(c, Decision{}, flight.ReasonUnregisteredDeny)
		return
	}
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
// fresh query round (onCheckTimer). The check stays in byKey (so concurrent
// Checks keep coalescing onto it) but not in pending (no round is in
// flight).
func (h *Host) deferCheck(a *hostApp, c *check, delay time.Duration) {
	h.counts.backoffs.Add(1)
	c.backoffs++
	if h.tracing {
		h.emitC(trace.EventCheckBackoff, c, 0, int64(delay))
	}
	c.timer.arm(h.env.Env, delay)
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
func (h *Host) onBusy(from wire.NodeID, m *wire.Busy) {
	c, ok := h.pending[m.Nonce]
	if !ok || c.key.app != m.App {
		return
	}
	a, ok := h.view.Load().apps[c.key.app]
	if !ok || !slices.Contains(a.managers, from) {
		return
	}
	h.counts.busyReplies.Add(1)
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
	c.timer.disarm()
	delete(h.pending, c.nonce)
	if c.attempts > 0 {
		c.attempts--
	}
	h.deferCheck(a, c, delay)
}

// newCheck takes a check struct from the free list (retaining its callback
// slice and its timer) or allocates a fresh one, binding the timer callback
// it keeps for life. checkLocked and finish are the paired
// producers/consumers of the list.
func (h *Host) newCheck(key checkKey) *check {
	if c := popFree(&h.freeChecks); c != nil {
		c.key = key
		return c
	}
	c := &check{key: key}
	c.callbacks = c.first[:0]
	c.timer.fn = func() {
		h.lock()
		h.onCheckTimer(c)
		h.unlock()
	}
	return c
}

// recycleCheck resets a finished check and returns it to the free list.
// Callers must ensure no references escape: finish clears the callbacks and
// pending/byKey entries and disarms the timer, and a firing it was too late
// to stop is counted in the timer's stale count, which the reset keeps, so a
// recycled struct can never be reached by old state.
func (h *Host) recycleCheck(c *check) {
	clear(c.callbacks)
	*c = check{callbacks: c.callbacks[:0], timer: c.timer}
	h.freeChecks = append(h.freeChecks, c)
}

// onCheckTimer is every firing of a check's timer: a round's timeout while
// the check's round is pending, else the end of its busy backoff while it is
// still the live check for its key.
func (h *Host) onCheckTimer(c *check) {
	if !c.timer.fired() {
		return
	}
	switch {
	case h.pending[c.nonce] == c:
		h.onQueryTimeout(c)
	case h.byKey[c.key] == c:
		a, ok := h.view.Load().apps[c.key.app]
		if !ok {
			h.finish(c, Decision{}, flight.ReasonUnregisteredDeny)
			return
		}
		h.startRound(a, c)
	}
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
	c.round = quorum.Round{}
	c.sentAt = h.now
	c.minExpire = 0
	h.pending[c.nonce] = c

	m := len(a.managers)
	count := m
	start := 0
	if c.attempts == 1 && a.sys.C < m {
		count = a.sys.C
		start = a.rr % m
		a.rr += count
	}
	h.counts.queryRounds.Add(1)
	h.ask(a, c, start, count)
	c.timer.arm(h.env.Env, a.policy.QueryTimeout)
}

// ask sends the round's query to the first count managers, in rotation order
// from position start, that the round has not asked yet; its trace event cites
// how many the round has then asked in all.
func (h *Host) ask(a *hostApp, c *check, start, count int) {
	h.query = wire.Query{App: c.key.app, User: c.key.user, Right: c.key.right, Nonce: c.nonce, Trace: c.trace}
	var msg wire.Message // made once for the round's sends
	m := len(a.managers)
	for i := 0; i < m && count > 0; i++ {
		p := (start + i) % m
		if c.round.Asked.Has(p) {
			continue
		}
		c.round.Asked = c.round.Asked.With(p)
		count--
		if msg == nil {
			msg = outbound(h.env, &h.query)
		}
		h.env.send(a.managers[p], msg)
	}
	if h.tracing {
		h.emitC(trace.EventQuerySent, c, 0, trace.Pair(c.attempts, c.round.Asked.Len()))
	}
}

// onQueryTimeout ends c's pending round unanswered.
func (h *Host) onQueryTimeout(c *check) {
	delete(h.pending, c.nonce)
	v := h.view.Load()
	a, ok := v.apps[c.key.app]
	if !ok {
		h.finish(c, Decision{}, flight.ReasonUnregisteredDeny)
		return
	}
	h.counts.queryTimeouts.Add(1)
	if h.tracing {
		h.emitC(trace.EventQueryTimeout, c, 0, int64(c.attempts))
	}
	h.retryOrGiveUp(a, c)
}

// retryOrGiveUp either starts another round or applies the R-attempt policy
// (deny, or Figure 4's default allow).
func (h *Host) retryOrGiveUp(a *hostApp, c *check) {
	if a.policy.MaxAttempts > 0 && c.attempts >= a.policy.MaxAttempts {
		if a.policy.DefaultAllow {
			h.finish(c, Decision{
				Allowed: true, DefaultAllowed: true,
				Attempts: c.attempts, Frozen: c.frozen,
			}, flight.ReasonDefaultAllow)
			return
		}
		h.finish(c, Decision{Attempts: c.attempts, Frozen: c.frozen}, flight.ReasonUnreachableDeny)
		return
	}
	h.startRound(a, c)
}

// finish resolves a check, queues its callbacks, and recycles the struct.
// reason is the decision's provenance, the one thing a decision site names:
// finish tells the decision event decisionEvents holds for it, counts the
// decision and records it, in that order, before the check's evidence is
// recycled away.
func (h *Host) finish(c *check, d Decision, reason flight.Reason) {
	v := h.view.Load()
	now := h.now
	if h.tracing {
		ev := decisionEvents[reason]
		var num int64
		if ev.attempts {
			num = int64(c.attempts)
		}
		h.emitC(ev.typ, c, ev.word, num)
	}
	h.recordDecision(c.born, now, reason)
	if v.aud != nil {
		h.auditFinish(v, c, d, reason)
	}
	c.timer.disarm()
	delete(h.pending, c.nonce)
	delete(h.byKey, c.key)
	for _, cb := range c.callbacks {
		h.fire(cb, d)
	}
	h.recycleCheck(c)
}

// HandleMessage implements the network handler: the "when ... from network"
// clauses of Figures 2 and 3 plus name-service and sealed-traffic handling.
// A value of a kind managers lend is handed to HandleLent by pointer.
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
	case wire.Response:
		msg = &m
	case wire.Busy:
		msg = &m
	case wire.RevokeNotice:
		msg = &m
	}
	h.HandleLent(from, msg)
}

// HandleLent is the host's one locked dispatch: a kind managers lend comes
// by pointer, lent for the call, and nothing the host keeps points into it
// (a Response's User is only compared with the round's own key).
func (h *Host) HandleLent(from wire.NodeID, msg wire.Message) {
	h.lock()
	switch m := msg.(type) {
	case *wire.Response:
		h.onResponse(from, m)
	case *wire.Busy:
		h.onBusy(from, m)
	case *wire.RevokeNotice:
		h.onRevokeNotice(from, m)
	case wire.ResolveResponse:
		h.onResolveResponse(from, m)
	}
	h.unlock()
}

func (h *Host) onResponse(from wire.NodeID, m *wire.Response) {
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
	i := slices.Index(a.managers, from)
	if i < 0 {
		return
	}
	vote := quorum.VoteDeny
	switch {
	case c.round.Answered.Has(i):
		return // a datagram the network duplicated is one manager's word, not two
	case m.Frozen:
		vote, c.frozen = quorum.VoteAbstain, true
	case m.Granted:
		vote = quorum.VoteGrant
		if c.minExpire == 0 || (m.Expire > 0 && m.Expire < c.minExpire) {
			c.minExpire = m.Expire
		}
	}
	switch c.round.Answer(a.sys, i, vote) {
	case quorum.Allow:
		h.grant(a, c)
	case quorum.Deny:
		// Drop any cached grant now rather than waiting out its expiry
		// (matters for refresh-ahead checks, where a valid entry is still
		// cached).
		h.cache.Remove(c.key.app, c.key.user, c.key.right)
		h.finish(c, Decision{Attempts: c.attempts, Frozen: c.frozen}, flight.ReasonQuorumDeny)
	case quorum.Widen:
		// Same nonce, same timer, no attempt consumed; sentAt stays the
		// first send, so sentAt + te is only more conservative for the later
		// answers (§3.2).
		h.ask(a, c, 0, len(a.managers))
	}
}

// grant caches the confirmed right and resolves the check. The expiration
// limit is sentAt + te, which equals now + te - δ for δ = now - sentAt, the
// conservative transmission-delay adjustment of §3.2.
func (h *Host) grant(a *hostApp, c *check) {
	var limit time.Time
	if c.minExpire > 0 {
		limit = c.sentAt.Add(c.minExpire)
	}
	h.granters = h.granters[:0]
	for i, id := range a.managers {
		if c.round.Granted.Has(i) {
			h.granters = append(h.granters, id)
		}
	}
	h.cache.Put(c.key.app, c.key.user, c.key.right, limit, h.granters...)
	confirmations := c.round.Granted.Len()
	if h.tracing {
		h.emitC(trace.EventGrantCached, c, 0, int64(confirmations))
	}
	h.finish(c, Decision{
		Allowed:       true,
		Confirmations: confirmations,
		Attempts:      c.attempts,
		Frozen:        c.frozen,
	}, flight.ReasonQuorumAllow)
}

func (h *Host) onRevokeNotice(from wire.NodeID, m *wire.RevokeNotice) {
	// Only managers of the application may flush cache entries; otherwise
	// any node could deny service by spraying RevokeNotices.
	v := h.view.Load()
	a, ok := v.apps[m.App]
	if !ok || !slices.Contains(a.managers, from) {
		return
	}
	removed := h.cache.Remove(m.App, m.User, m.Right)
	if removed {
		h.counts.revokeNotices.Add(1)
		h.emit(trace.EventRevokeApplied, m.App, m.User)
	}
	// Ack regardless: the manager needs to stop retransmitting even if the
	// entry was already gone (§3.1: removal of a non-existent right is a
	// no-op).
	h.ack = wire.RevokeAck{App: m.App, User: m.User, Seq: m.Seq}
	h.env.send(from, outbound(h.env, &h.ack))
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
				h.finish(c, Decision{}, flight.ReasonResolveDeny)
			}
			a.waiting = nil
		}
		return
	}
	a.resolving = true
	a.resolveNonce = h.nonce.Add(1)
	h.env.Send(a.nameService, wire.ResolveRequest{App: app, Nonce: a.resolveNonce})
	a.resolveTimer = h.env.SetTimer(a.policy.QueryTimeout, func() {
		h.lock()
		h.onResolveTimeout(a, app)
		h.unlock()
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
				h.finish(c, Decision{Allowed: true, DefaultAllowed: true, Attempts: c.attempts},
					flight.ReasonResolveAllow)
			} else {
				h.finish(c, Decision{Attempts: c.attempts}, flight.ReasonResolveDeny)
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
	sys, err := quorum.New(len(m.Managers), a.policy.CheckQuorum)
	if err != nil {
		// Name service knows no managers, fewer than C, or more than a round
		// can track: treat like a resolve timeout.
		h.onResolveTimeout(a, m.App)
		return
	}
	a.resolving = false
	a.setManagers(m.Managers, sys)
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
	sys, err := a.policy.validate(len(managers))
	if err != nil {
		return fmt.Errorf("app %s: %w", app, err)
	}
	a.setManagers(managers, sys)
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

// CacheCensus counts the cached entries and those past their limit on the
// host's own clock, drifting within b (§3.2), the limits' frame: the
// harness's cache-hygiene oracle finds none survives a purge.
func (h *Host) CacheCensus() (entries, expired int) { return h.cache.Census(h.env.Now()) }

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
		c.timer.disarm()
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

// emit emits an event outside a check's lifecycle: an expiry, a flush.
func (h *Host) emit(t trace.EventType, app wire.AppID, user wire.UserID) {
	h.tracer.Emit(trace.Event{Time: h.now, Node: h.id, Type: t, App: app, User: user})
}

// emitC emits an event of check c's lifecycle with its detail: it carries
// the check's causal trace ID so flight recordings and audit records join on
// the same key.
func (h *Host) emitC(t trace.EventType, c *check, w trace.Word, num int64) {
	h.tracer.Emit(trace.Event{
		Time: h.now, Node: h.id, Type: t, App: c.key.app, User: c.key.user, Trace: c.trace, Word: w, Num: num,
	})
}
