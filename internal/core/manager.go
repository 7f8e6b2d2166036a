package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"wanac/internal/acl"
	"wanac/internal/auth"
	"wanac/internal/flight"
	"wanac/internal/quorum"
	"wanac/internal/ratelimit"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// Manager is the manager side of the protocol (§3.1, §3.3-3.4): it holds
// the authoritative access control list for its applications, answers host
// queries with expiring grants, disseminates Add/Revoke updates to peer
// managers persistently until acknowledged, tracks the update quorum that
// starts the Te guarantee, forwards revocations to every host it granted,
// optionally applies the freeze strategy, and resynchronizes after a crash.
type Manager struct {
	id      wire.NodeID
	env     link
	tracer  trace.Tracer
	tracing bool          // false when tracer is trace.Nop: skip per-query events
	keyring *auth.Keyring // nil: trust AdminOp issuers (simulation)

	mu sync.Mutex
	// now is the clock reading of the current entry into the node: taken
	// once, after mu is acquired, and shared by everything the entry stamps
	// (trace events, audit records, grant deadlines, Issued times).
	now         time.Time
	store       *acl.Store
	apps        map[wire.AppID]*mgrApp
	outstanding map[wire.UpdateSeq]*outUpdate
	notices     map[noticeKey]*outNotice
	// freeUpdates and freeNotices recycle finished records with their
	// timers, as Host.freeChecks does checks.
	freeUpdates []*outUpdate
	freeNotices []*outNotice
	fires       []reply
	// resp, busy and ack are the answer to the query or Update being
	// handled, built in place to be lent (see LentSender).
	resp wire.Response
	busy wire.Busy
	ack  wire.UpdateAck
	// vouched is applyLocked's scratch for the vouches a revocation
	// withdraws.
	vouched []acl.Vouch
	// freezing is set once any app's heartbeat loop is armed (FreezeTi):
	// only that loop reads lastSeen, so only then does notePeer maintain it.
	freezing bool
	counts   managerCounts
	// quorumLatency and revocationLag are nil until InstrumentManager.
	quorumLatency *telemetry.Histogram
	revocationLag *telemetry.Histogram
	// aud, when set, records one response-kind audit entry per query
	// verdict (see audit.go). Nil-guarded.
	aud *flight.Recorder
}

// mgrApp is the per-application dissemination and grant-tracking state.
type mgrApp struct {
	cfg   ManagerAppConfig
	peers []wire.NodeID // excluding self
	// sys is C over Managers(A); members is Managers(A), self included, in
	// lexical order: the positions of an update's acks and its send order.
	sys     quorum.System
	members []wire.NodeID
	counter uint64
	// applied[origin] is the highest contiguously applied counter per
	// origin; buffer holds out-of-order updates awaiting their predecessors.
	applied map[wire.NodeID]uint64
	buffer  map[wire.NodeID]map[uint64]wire.Update
	// forced records updates applied out of band via ForceApply (§3.3's
	// human-operator escape hatch) so in-order delivery skips re-applying.
	forced map[wire.UpdateSeq]bool
	// lastOp records the most recent operation applied per (user, right)
	// key. Updates from different origins carry no causal order, so
	// managers resolve conflicts by last-writer-wins on the Issued
	// timestamp (origin id breaking ties): without this, a delayed
	// retransmission of an older add could silently overwrite a newer
	// revoke at some managers and leave the group permanently diverged,
	// voiding the quorum-intersection argument behind the Te bound. It is a
	// table of its own, not a field of the store's per-user record, because
	// a revoke's tombstone must outlive the rights (and the record) it
	// removed.
	lastOp map[grantKey]wire.Update
	// Freeze strategy state.
	lastSeen  map[wire.NodeID]time.Time
	frozen    bool
	heartbeat timer
	// Recovery state.
	syncing bool
	sync    timer
	// Overload-protection state (nil buckets: that limit disabled).
	appBucket   *ratelimit.Bucket
	hostBuckets *ratelimit.Keyed
	// effTe is the adaptive controller's current effective Te; it tracks
	// cfg.Te when the controller is off or idle and widens (never past
	// Overload.AdaptiveTe.Max) while queries are being shed.
	effTe time.Duration
	// expire is the te handed to hosts at the current effTe, and hold = te/b
	// how long a grant is then tracked: te on the slowest legal host clock.
	expire, hold time.Duration
	shedWindow   uint64 // sheds in the current controller interval
	adapt        timer
}

type grantKey struct {
	user  wire.UserID
	right wire.Right
}

type noticeKey struct {
	seq  wire.UpdateSeq
	host wire.NodeID
}

// outUpdate tracks persistent dissemination of one update. Its timer runs
// onUpdateRetry.
type outUpdate struct {
	upd wire.Update
	// sys and members are the app's at issue, so SetPeers cannot move the
	// quorum; acked holds the members that applied it, the origin included.
	sys        quorum.System
	members    []wire.NodeID
	acked      quorum.Set
	quorumDone bool
	retries    int
	timer      timer
	// issuedAt feeds the update-quorum latency histogram.
	issuedAt time.Time
	// Exactly one of replyCb / replyTo is used for quorum notification.
	replyCb func(wire.AdminReply)
	replyTo wire.NodeID
	reqID   uint64
}

// outNotice tracks retransmission of one revocation notice to one host. Its
// timer runs onNoticeRetry.
type outNotice struct {
	msg      wire.RevokeNotice
	host     wire.NodeID
	deadline time.Time // zero: no expiry backstop (basic protocol)
	retries  int
	timer    timer
	// created feeds the revocation-propagation latency histogram.
	created time.Time
}

// reply is one admin-op callback queued to run after the lock is released.
type reply struct {
	cb func(wire.AdminReply)
	r  wire.AdminReply
}

// NewManager creates a manager node. keyring may be nil, in which case
// AdminOp issuers are trusted without signature verification (simulation
// mode; §2.1 assumes authentication is available).
func NewManager(id wire.NodeID, env Env, tracer trace.Tracer, keyring *auth.Keyring) *Manager {
	if tracer == nil {
		tracer = trace.Nop{}
	}
	_, nop := tracer.(trace.Nop)
	return &Manager{
		id:          id,
		env:         newLink(env),
		tracer:      tracer,
		tracing:     !nop,
		keyring:     keyring,
		store:       acl.NewStore(),
		apps:        make(map[wire.AppID]*mgrApp),
		outstanding: make(map[wire.UpdateSeq]*outUpdate),
		notices:     make(map[noticeKey]*outNotice),
	}
}

// ID returns the manager's node id.
func (m *Manager) ID() wire.NodeID { return m.id }

// AddApp registers an application this manager manages.
func (m *Manager) AddApp(app wire.AppID, cfg ManagerAppConfig) error {
	cfg = cfg.withDefaults()
	sys, err := cfg.validate(m.id)
	if err != nil {
		return fmt.Errorf("app %s: %w", app, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.apps[app]; ok {
		return fmt.Errorf("%w: app %s already registered", ErrConfig, app)
	}
	ma := &mgrApp{}
	now := m.env.Now()
	ma.setPeers(m.id, cfg, sys, now)
	ma.reset(now)
	m.bind(&ma.heartbeat, func() { m.onHeartbeatTick(app, ma) })
	m.bind(&ma.adapt, func() { m.onAdaptTick(app, ma) })
	m.bind(&ma.sync, func() {
		if ma.syncing {
			m.startSync(app, ma)
		}
	})
	m.apps[app] = ma
	m.startTicks(ma)
	return nil
}

// bind makes t's callback an entry into the node that runs fire for each
// awaited firing.
func (m *Manager) bind(t *timer, fire func()) {
	t.fn = func() {
		m.lock()
		if t.fired() {
			fire()
		}
		m.unlock()
	}
}

// startTicks arms the app's heartbeat and adaptive-Te loops where its
// configuration runs them.
func (m *Manager) startTicks(ma *mgrApp) {
	if ma.cfg.FreezeTi > 0 && len(ma.peers) > 0 {
		m.scheduleHeartbeat(ma)
	}
	if ma.cfg.Overload.AdaptiveTe.Max > 0 {
		m.scheduleAdapt(ma)
	}
}

// reset empties the app's sequencing, buffers and last-writer-wins frontier,
// counts every peer as seen at now, rebuilds the admission buckets and
// returns the effective Te to its base (AddApp, Recover, ResetVolatile).
func (ma *mgrApp) reset(now time.Time) {
	ma.counter = 0
	ma.applied = make(map[wire.NodeID]uint64)
	ma.buffer = make(map[wire.NodeID]map[uint64]wire.Update)
	ma.forced = make(map[wire.UpdateSeq]bool)
	ma.lastOp = make(map[grantKey]wire.Update)
	for _, p := range ma.peers {
		ma.lastSeen[p] = now
	}
	rl := ma.cfg.Overload.RateLimit
	ma.appBucket, ma.hostBuckets = nil, nil
	if rl.AppRPS > 0 {
		ma.appBucket = ratelimit.NewBucket(rl.AppRPS, rl.AppBurst)
	}
	if rl.HostRPS > 0 {
		ma.hostBuckets = ratelimit.NewKeyed(rl.HostRPS, rl.HostBurst, 0)
	}
	ma.setEffTe(ma.cfg.Te)
	ma.shedWindow = 0
}

// Seed grants a right directly in the local store without dissemination.
// Use it for bootstrap state that every manager is configured with (e.g.
// the initial manage rights of administrators).
func (m *Manager) Seed(app wire.AppID, user wire.UserID, right wire.Right) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store.Grant(app, user, right)
}

// Has reports whether user currently holds right on app in this manager's
// local view.
func (m *Manager) Has(app wire.AppID, user wire.UserID, right wire.Right) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Has(app, user, right)
}

// setEffTe installs the controller's effective Te and derives the
// expiration period handed to hosts from it: Te scaled by the clock bound b
// (§3.2). Under the freeze strategy the budget Te is split between the
// inaccessibility period Ti and the host-side expiration, so te is derived
// from Te-Ti ("Ti and te must be chosen so that their sum is at most Te",
// §3.3). Zero means grants do not expire (basic protocol). The adaptive
// controller substitutes its widened effective Te (bounded by
// AdaptiveTe.Max) for the configured base under sustained overload.
func (ma *mgrApp) setEffTe(effTe time.Duration) {
	ma.effTe = effTe
	ma.expire, ma.hold = 0, 0
	if eff := ma.effectiveTe(); eff != 0 {
		ma.expire = time.Duration(float64(eff-ma.cfg.FreezeTi) * ma.cfg.ClockBound)
		ma.hold = time.Duration(float64(ma.expire) / ma.cfg.ClockBound)
	}
}

// effectiveTe is the controller's current revocation bound (cfg.Te when the
// controller is off or idle), exported through ManagerStats.
func (ma *mgrApp) effectiveTe() time.Duration {
	if ma.effTe > ma.cfg.Te {
		return ma.effTe
	}
	return ma.cfg.Te
}

// Submit issues an access-control operation locally (the Manager component
// of Figure 1 co-located with this node). cb is invoked exactly once: with
// Accepted=false immediately on rejection, or with QuorumReached when the
// update quorum has acknowledged (or retransmission gave up). cb runs
// outside the manager lock.
func (m *Manager) Submit(op wire.AdminOp, cb func(wire.AdminReply)) {
	m.lock()
	m.submitLocked(op, cb, "", 0)
	m.unlock()
}

// lock is an entry into the node: it takes the lock and reads m.now.
func (m *Manager) lock() {
	m.mu.Lock()
	m.now = m.env.Now()
}

// unlock ends the entry: it releases the lock and runs the queued replies,
// copied out (to the stack, for the usual few) so the queue keeps its buffer.
func (m *Manager) unlock() {
	var buf [4]reply
	fires := append(buf[:0], m.fires...)
	clear(m.fires)
	m.fires = m.fires[:0]
	m.mu.Unlock()
	for _, f := range fires {
		f.cb(f.r)
	}
}

// reply answers an admin op: to the node that sent it, if any, and to its
// callback, if any, once the lock is released.
func (m *Manager) reply(cb func(wire.AdminReply), to wire.NodeID, r wire.AdminReply) {
	if to != "" {
		m.env.Send(to, r)
	}
	if cb != nil {
		m.fires = append(m.fires, reply{cb, r})
	}
}

func (m *Manager) submitLocked(op wire.AdminOp, cb func(wire.AdminReply), replyTo wire.NodeID, reqID uint64) {
	fail := func(msg string) { m.reply(cb, replyTo, wire.AdminReply{ReqID: reqID, Err: msg}) }
	ma, ok := m.apps[op.App]
	if !ok {
		fail("unknown application")
		return
	}
	if ma.syncing {
		fail("manager recovering")
		return
	}
	if !op.Right.Valid() || (op.Op != wire.OpAdd && op.Op != wire.OpRevoke) {
		fail("invalid operation")
		return
	}
	// Authorization: the issuer must hold the manage right (§2.1: the users
	// that can change access rights form Managers(A)).
	if op.Issuer == "" || !m.store.Has(op.App, op.Issuer, wire.RightManage) {
		fail("issuer lacks manage right")
		return
	}
	if op.ValidFor < 0 {
		fail("negative validity period")
		return
	}

	m.issueLocked(ma, op, cb, replyTo, reqID)
}

// issueLocked performs the already-authorized issue path: assign a
// sequence number, apply locally, and start persistent dissemination.
func (m *Manager) issueLocked(ma *mgrApp, op wire.AdminOp, cb func(wire.AdminReply), replyTo wire.NodeID, reqID uint64) {
	ma.counter++
	issued := m.now
	// Guarantee the issuer's own operation supersedes what it has applied
	// for the key, even if a peer's clock ran ahead of ours.
	if cur, ok := ma.lastOp[grantKey{user: op.User, right: op.Right}]; ok && !issued.After(cur.Issued) {
		issued = cur.Issued.Add(time.Nanosecond)
	}
	upd := wire.Update{
		Seq:    wire.UpdateSeq{Origin: m.id, Counter: ma.counter},
		Op:     op.Op,
		App:    op.App,
		User:   op.User,
		Right:  op.Right,
		Issued: issued,
	}
	m.applyLocked(op.App, ma, upd)
	ma.applied[m.id] = ma.counter
	m.counts.updatesIssued.Add(1)
	m.emitUpd(trace.EventUpdateIssued, &upd, trace.OpWord(upd.Op), "")

	self, _ := slices.BinarySearch(ma.members, m.id)
	out := m.newUpdate()
	out.upd, out.sys, out.members, out.acked = upd, ma.sys, ma.members, quorum.Set(0).With(self)
	out.replyCb, out.replyTo, out.reqID, out.issuedAt = cb, replyTo, reqID, m.now
	m.outstanding[upd.Seq] = out

	m.reply(nil, replyTo, wire.AdminReply{ReqID: reqID, Accepted: true})
	m.transmitUpdate(ma, out)
	m.checkUpdateQuorum(out)
	if out.done() { // this manager is the app's only member: no ack will come
		m.finishUpdate(out)
	}

	// Temporal authorization (§4.2): an Add with a validity period turns
	// into a scheduled Revoke issued by this manager when the period ends.
	// The revoke is an ordinary update, so it disseminates with the same
	// quorum/persistence machinery and enjoys the same Te bound.
	if op.Op == wire.OpAdd && op.ValidFor > 0 {
		revoke := wire.AdminOp{
			Op: wire.OpRevoke, App: op.App, User: op.User, Right: op.Right,
			Issuer: op.Issuer,
		}
		app := op.App
		m.env.SetTimer(op.ValidFor, func() {
			m.lock()
			defer m.unlock()
			// Authorized at grant time: issue directly even if the original
			// issuer has since lost the manage right.
			if cur, ok := m.apps[app]; ok && !cur.syncing {
				m.issueLocked(cur, revoke, nil, "", 0)
			}
		})
	}
}

// newUpdate takes an update record from the free list or makes one,
// binding its timer's callback for life.
func (m *Manager) newUpdate() *outUpdate {
	out := popFree(&m.freeUpdates)
	if out == nil {
		out = &outUpdate{}
		m.bind(&out.timer, func() { m.onUpdateRetry(out) })
	}
	return out
}

// finishUpdate forgets out, whose timer is disarmed or has fired, and
// recycles it with its timer.
func (m *Manager) finishUpdate(out *outUpdate) {
	delete(m.outstanding, out.upd.Seq)
	*out = outUpdate{timer: out.timer}
	m.freeUpdates = append(m.freeUpdates, out)
}

// transmitUpdate sends the update to all unacked peers and arms the
// retransmission timer (persistent dissemination, §3.3).
func (m *Manager) transmitUpdate(ma *mgrApp, out *outUpdate) {
	if out.done() {
		return
	}
	msg := outbound(m.env, &out.upd)
	for i, p := range out.members {
		if !out.acked.Has(i) {
			m.env.send(p, msg)
		}
	}
	out.timer.arm(m.env.Env, ma.cfg.UpdateRetry)
}

func (m *Manager) onUpdateRetry(out *outUpdate) {
	ma, ok := m.apps[out.upd.App]
	if !ok {
		return
	}
	out.retries++
	if ma.cfg.MaxUpdateRetries > 0 && out.retries >= ma.cfg.MaxUpdateRetries {
		// Gave up: the paper would keep trying (or escalate to a human,
		// §3.3); bounded deployments report failure instead.
		if !out.quorumDone {
			m.reply(out.replyCb, out.replyTo, wire.AdminReply{ReqID: out.reqID, Accepted: true, Err: "update quorum not reached"})
		}
		m.finishUpdate(out)
		return
	}
	m.transmitUpdate(ma, out)
}

// done reports whether every member has acked out.
func (out *outUpdate) done() bool { return out.acked == quorum.First(len(out.members)) }

func (m *Manager) checkUpdateQuorum(out *outUpdate) {
	if out.quorumDone || !out.sys.IsUpdateQuorum(out.acked) {
		return
	}
	out.quorumDone = true
	m.counts.quorumsReached.Add(1)
	observeSince(m.quorumLatency, out.issuedAt, m.now)
	m.emitUpd(trace.EventUpdateQuorum, &out.upd, trace.OpWord(out.upd.Op), "")
	m.reply(out.replyCb, out.replyTo, wire.AdminReply{ReqID: out.reqID, Accepted: true, QuorumReached: true})
}

// newerOp reports whether a supersedes b under the last-writer-wins order:
// Issued timestamp, then origin id, then counter.
func newerOp(a, b wire.Update) bool {
	if !a.Issued.Equal(b.Issued) {
		return a.Issued.After(b.Issued)
	}
	if a.Seq.Origin != b.Seq.Origin {
		return a.Seq.Origin > b.Seq.Origin
	}
	return a.Seq.Counter > b.Seq.Counter
}

// applyLocked applies an update to the local store and, for revocations,
// forwards notices to every host this manager granted the right to (§3.1).
// Updates older (by LWW order) than the last applied operation on the same
// key are discarded (reported via the return value); they are still
// acknowledged by the caller so the origin stops retransmitting.
func (m *Manager) applyLocked(app wire.AppID, ma *mgrApp, upd wire.Update) bool {
	gk := grantKey{user: upd.User, right: upd.Right}
	if cur, ok := ma.lastOp[gk]; ok && !newerOp(upd, cur) {
		return false
	}
	ma.lastOp[gk] = upd
	switch upd.Op {
	case wire.OpAdd:
		m.store.Grant(app, upd.User, upd.Right)
	case wire.OpRevoke:
		m.vouched, _ = m.store.Withdraw(app, upd.User, upd.Right, m.vouched[:0])
		m.forwardRevocation(ma, upd)
	}
	return true
}

// forwardRevocation notifies the hosts the revoked right was vouched to
// (m.vouched), in host-id order.
func (m *Manager) forwardRevocation(ma *mgrApp, upd wire.Update) {
	for _, v := range m.vouched {
		if !v.Deadline.IsZero() && !m.now.Before(v.Deadline) {
			continue // cached copy already expired; no notice needed
		}
		n := m.newNotice()
		n.msg = wire.RevokeNotice{App: upd.App, User: upd.User, Right: upd.Right, Seq: upd.Seq}
		n.host, n.deadline, n.created = v.Host, v.Deadline, m.now
		m.notices[n.key()] = n
		m.transmitNotice(ma, n)
	}
}

// newNotice is newUpdate for a notice record.
func (m *Manager) newNotice() *outNotice {
	n := popFree(&m.freeNotices)
	if n == nil {
		n = &outNotice{}
		m.bind(&n.timer, func() { m.onNoticeRetry(n) })
	}
	return n
}

// finishNotice is finishUpdate for a notice record.
func (m *Manager) finishNotice(n *outNotice) {
	delete(m.notices, n.key())
	*n = outNotice{timer: n.timer}
	m.freeNotices = append(m.freeNotices, n)
}

func (n *outNotice) key() noticeKey { return noticeKey{seq: n.msg.Seq, host: n.host} }

func (m *Manager) transmitNotice(ma *mgrApp, n *outNotice) {
	m.env.send(n.host, outbound(m.env, &n.msg))
	n.timer.arm(m.env.Env, ma.cfg.UpdateRetry)
}

func (m *Manager) onNoticeRetry(n *outNotice) {
	ma, ok := m.apps[n.msg.App]
	if !ok {
		return
	}
	n.retries++
	// §3.4: stop resending once the grant would have expired on its own.
	if !n.deadline.IsZero() && !m.now.Before(n.deadline) {
		m.finishNotice(n)
		return
	}
	if ma.cfg.MaxUpdateRetries > 0 && n.retries >= ma.cfg.MaxUpdateRetries {
		m.finishNotice(n)
		return
	}
	m.transmitNotice(ma, n)
}

// HandleMessage dispatches network traffic: a value of a kind nodes lend is
// handed to HandleLent by pointer, anything else as it is.
func (m *Manager) HandleMessage(from wire.NodeID, msg wire.Message) {
	switch mm := msg.(type) {
	case wire.Query:
		msg = &mm
	case wire.Update:
		msg = &mm
	case wire.UpdateAck:
		msg = &mm
	case wire.RevokeAck:
		msg = &mm
	}
	m.HandleLent(from, msg)
}

// HandleLent is the manager's one dispatch: a kind nodes lend comes by
// pointer, lent for the call, and nothing the manager keeps points into it.
func (m *Manager) HandleLent(from wire.NodeID, msg wire.Message) {
	m.lock()
	defer m.unlock()
	// Any direct traffic from a peer proves reachability for the freeze
	// strategy's accessibility tracking.
	m.notePeer(from)
	switch mm := msg.(type) {
	case *wire.Query:
		m.onQuery(from, mm)
	case *wire.Update:
		m.onUpdate(mm)
	case *wire.UpdateAck:
		m.onUpdateAck(from, mm)
	case *wire.RevokeAck:
		m.onRevokeAck(mm)
	case wire.SyncRequest:
		m.onSyncRequest(from, mm)
	case wire.SyncResponse:
		m.onSyncResponse(mm)
	case wire.Heartbeat:
		m.env.Send(from, wire.HeartbeatAck{Nonce: mm.Nonce})
	case wire.HeartbeatAck:
		// notePeer above already refreshed lastSeen.
	case wire.AdminOp:
		if m.keyring != nil {
			m.env.Send(from, wire.AdminReply{ReqID: mm.ReqID, Err: "unauthenticated admin op"})
			return
		}
		m.submitLocked(mm, nil, from, mm.ReqID)
	case wire.Sealed:
		m.onSealed(from, mm)
	}
}

func (m *Manager) onSealed(from wire.NodeID, sealed wire.Sealed) {
	if m.keyring == nil {
		return
	}
	inner, err := auth.VerifyClaim(m.keyring, sealed)
	if err != nil {
		return
	}
	if op, ok := inner.(wire.AdminOp); ok {
		m.submitLocked(op, nil, from, op.ReqID)
	}
}

func (m *Manager) notePeer(from wire.NodeID) {
	if !m.freezing {
		return
	}
	for _, ma := range m.apps {
		if _, ok := ma.lastSeen[from]; ok {
			ma.lastSeen[from] = m.now
		}
	}
}

// onQuery answers an access-right check. While recovering or frozen the
// manager declines (§3.3: "no responses are sent to application hosts").
func (m *Manager) onQuery(from wire.NodeID, q *wire.Query) {
	m.resp = wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Trace: q.Trace}
	ma, ok := m.apps[q.App]
	switch {
	case !ok:
		m.served(nil, from, q, flight.ReasonQueryUnknownApp)
	case ma.syncing || ma.frozen:
		m.resp.Frozen = true
		m.served(ma, from, q, flight.ReasonQueryFrozen)
	case !m.admitQuery(ma, from):
		m.shedQuery(ma, from, q)
		return
	default:
		// The verdict and the grant's bookkeeping are one probe of the
		// store: a granted query is tracked so a future revocation can be
		// forwarded (§3.1). The deadline is when the host's cached copy must
		// have expired in real time: te/b covers the slowest legal host
		// clock, counted from m.now — read after the query arrived, so after
		// the host stamped it.
		var deadline time.Time
		if ma.hold > 0 {
			deadline = m.now.Add(ma.hold)
		}
		if m.store.Vouch(q.App, q.User, q.Right, from, deadline, m.now) {
			m.resp.Granted, m.resp.Expire = true, ma.expire
			m.served(ma, from, q, flight.ReasonQueryGranted)
		} else {
			m.served(ma, from, q, flight.ReasonQueryDenied)
		}
	}
	m.env.send(from, outbound(m.env, &m.resp))
}

// served counts a query's verdict and tells the attached observers: the
// query-served trace event decisionEvents holds for reason and the response
// audit record, in that order. ma is nil for unknown-app
// verdicts.
func (m *Manager) served(ma *mgrApp, from wire.NodeID, q *wire.Query, reason flight.Reason) {
	m.counts.verdicts[reason].Add(1)
	m.emitServed(from, q, reason)
	if m.aud != nil {
		m.auditResponse(ma, from, q, reason)
	}
}

// admitQuery runs the token buckets: the per-host bucket first (fairness —
// one aggressive host exhausts only its own budget), then the aggregate
// application bucket.
func (m *Manager) admitQuery(ma *mgrApp, from wire.NodeID) bool {
	if ma.appBucket == nil && ma.hostBuckets == nil {
		return true
	}
	if ma.hostBuckets != nil && !ma.hostBuckets.Allow(string(from), m.now) {
		return false
	}
	if ma.appBucket != nil && !ma.appBucket.Allow(m.now) {
		return false
	}
	return true
}

// shedQuery answers an over-budget query with a Busy reply carrying a
// clamped Retry-After, instead of serving it.
func (m *Manager) shedQuery(ma *mgrApp, from wire.NodeID, q *wire.Query) {
	m.counts.verdicts[flight.ReasonQueryShed].Add(1)
	ma.shedWindow++
	now := m.now
	var retry time.Duration
	if ma.hostBuckets != nil {
		retry = ma.hostBuckets.RetryAfter(string(from), now)
	}
	if ma.appBucket != nil {
		if r := ma.appBucket.RetryAfter(now); r > retry {
			retry = r
		}
	}
	maxRetry := ma.cfg.Overload.MaxRetryAfter
	if maxRetry <= 0 {
		maxRetry = DefaultMaxRetryAfter
	}
	if retry > maxRetry {
		retry = maxRetry
	}
	if m.tracing {
		m.tracer.Emit(trace.Event{
			Time: now, Node: m.id, Type: trace.EventQueryShed,
			App: q.App, User: q.User, Trace: q.Trace,
			Peer: from, Num: int64(retry),
		})
	}
	if m.aud != nil {
		m.auditResponse(ma, from, q, flight.ReasonQueryShed)
	}
	m.busy = wire.Busy{App: q.App, Nonce: q.Nonce, RetryAfter: retry, Trace: q.Trace}
	m.env.send(from, outbound(m.env, &m.busy))
}

// scheduleAdapt arms the adaptive-Te controller tick for one app.
func (m *Manager) scheduleAdapt(ma *mgrApp) {
	interval := ma.cfg.Overload.AdaptiveTe.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ma.adapt.arm(m.env.Env, interval)
}

// onAdaptTick evaluates one controller interval: any shed query doubles
// the effective Te (capped at Max); a quiet interval halves it back toward
// the configured base. Widening stretches grant expiry — hosts re-verify
// less often, which sheds load at the source — while Max keeps the
// worst-case revocation latency stated.
func (m *Manager) onAdaptTick(app wire.AppID, ma *mgrApp) {
	prev := ma.effTe
	if ma.shedWindow > 0 {
		ma.setEffTe(min(ma.effTe*2, ma.cfg.Overload.AdaptiveTe.Max))
	} else if ma.effTe > ma.cfg.Te {
		ma.setEffTe(max(ma.effTe/2, ma.cfg.Te))
	}
	if ma.effTe != prev {
		if ma.effTe > prev {
			m.counts.teWidenings.Add(1)
		}
		m.emit(trace.EventTeAdapted, app, int64(ma.effTe))
	}
	ma.shedWindow = 0
	m.scheduleAdapt(ma)
}

// onUpdate applies peer updates in per-origin counter order, buffering
// gaps; acks are sent only for applied updates so that the update quorum
// reflects managers that actually know the operation.
func (m *Manager) onUpdate(upd *wire.Update) {
	ma, ok := m.apps[upd.App]
	if !ok || !slices.Contains(ma.peers, upd.Seq.Origin) {
		return
	}
	if ma.syncing {
		m.bufferUpdate(ma, *upd)
		return
	}
	origin := upd.Seq.Origin
	switch {
	case upd.Seq.Counter <= ma.applied[origin]:
		// Duplicate (retransmission after a lost ack): re-ack.
		m.ack = wire.UpdateAck{Seq: upd.Seq}
		m.env.send(origin, outbound(m.env, &m.ack))
	case upd.Seq.Counter == ma.applied[origin]+1:
		m.applyInOrder(ma, *upd)
		m.drainBuffer(ma, origin)
	default:
		m.bufferUpdate(ma, *upd)
	}
}

func (m *Manager) bufferUpdate(ma *mgrApp, upd wire.Update) {
	origin := upd.Seq.Origin
	b := ma.buffer[origin]
	if b == nil {
		b = make(map[uint64]wire.Update)
		ma.buffer[origin] = b
	}
	b[upd.Seq.Counter] = upd
}

func (m *Manager) applyInOrder(ma *mgrApp, upd wire.Update) {
	origin := upd.Seq.Origin
	if !ma.forced[upd.Seq] {
		if m.applyLocked(upd.App, ma, upd) {
			m.counts.updatesApplied.Add(1)
			m.emitUpd(trace.EventUpdateApplied, &upd, trace.OpWord(upd.Op), origin)
		} else {
			m.counts.updatesStale.Add(1)
		}
	} else {
		delete(ma.forced, upd.Seq)
	}
	ma.applied[origin] = upd.Seq.Counter
	m.ack = wire.UpdateAck{Seq: upd.Seq}
	m.env.send(origin, outbound(m.env, &m.ack))
}

func (m *Manager) drainBuffer(ma *mgrApp, origin wire.NodeID) {
	b := ma.buffer[origin]
	for {
		next := ma.applied[origin] + 1
		upd, ok := b[next]
		if !ok {
			break
		}
		delete(b, next)
		m.applyInOrder(ma, upd)
	}
	if len(b) == 0 {
		delete(ma.buffer, origin)
	}
}

func (m *Manager) onUpdateAck(from wire.NodeID, ack *wire.UpdateAck) {
	out, ok := m.outstanding[ack.Seq]
	if !ok {
		return
	}
	i, ok := slices.BinarySearch(out.members, from)
	if !ok || out.acked.Has(i) {
		return
	}
	out.acked = out.acked.With(i)
	m.checkUpdateQuorum(out)
	if out.done() {
		out.timer.disarm()
		m.finishUpdate(out)
	}
}

func (m *Manager) onRevokeAck(ack *wire.RevokeAck) {
	// Notices are keyed by (seq, host); the ack does not carry the host id
	// explicitly, so search the small notice table.
	for k, n := range m.notices {
		if k.seq == ack.Seq && n.msg.App == ack.App && n.msg.User == ack.User {
			n.timer.disarm()
			observeSince(m.revocationLag, n.created, m.now)
			m.finishNotice(n)
		}
	}
}

// ForceApply injects an update out of band, modeling the paper's human
// operator entering the update manually at a manager that the origin cannot
// reach (§3.3). The update takes effect immediately; when the original
// eventually arrives through the network it is acknowledged without being
// applied twice.
func (m *Manager) ForceApply(upd wire.Update) error {
	m.lock()
	defer m.unlock()
	ma, ok := m.apps[upd.App]
	if !ok {
		return fmt.Errorf("%w: unknown app %s", ErrConfig, upd.App)
	}
	if upd.Seq.Counter <= ma.applied[upd.Seq.Origin] || ma.forced[upd.Seq] {
		return nil // already known
	}
	m.applyLocked(upd.App, ma, upd)
	ma.forced[upd.Seq] = true
	m.emitUpd(trace.EventUpdateApplied, &upd, trace.WordForced, "")
	return nil
}

// scheduleHeartbeat arms the freeze-strategy probe loop for one app.
func (m *Manager) scheduleHeartbeat(ma *mgrApp) {
	m.freezing = true
	ma.heartbeat.arm(m.env.Env, ma.cfg.HeartbeatEvery)
}

func (m *Manager) onHeartbeatTick(app wire.AppID, ma *mgrApp) {
	for _, p := range ma.peers {
		m.env.Send(p, wire.Heartbeat{})
	}
	stale := false
	for _, p := range ma.peers {
		if m.now.Sub(ma.lastSeen[p]) > ma.cfg.FreezeTi {
			stale = true
			break
		}
	}
	if stale && !ma.frozen {
		ma.frozen = true
		m.emit(trace.EventFrozen, app, 0)
	} else if !stale && ma.frozen {
		ma.frozen = false
		m.emit(trace.EventUnfrozen, app, 0)
	}
	m.scheduleHeartbeat(ma)
}

// Recover models a manager restart after a crash: all volatile state is
// discarded and the manager refuses to answer queries until it has
// retrieved current access control information from a peer (§3.4).
// Single-manager deployments have no peer to sync from and resume
// immediately with whatever was seeded.
func (m *Manager) Recover() {
	m.lock()
	defer m.unlock()
	m.store = acl.NewStore()
	m.dropRecords()
	for app, ma := range m.apps {
		ma.reset(m.now)
		if len(ma.peers) > 0 {
			ma.syncing = true
			m.startSync(app, ma)
		}
	}
}

// ResetVolatile returns the manager to its post-AddApp state: the ACL store
// is emptied (callers re-Seed bootstrap rights), outstanding update
// dissemination and revocation notices are cancelled, and per-app
// sequencing, buffers, grant tracking (it lives in the store), and
// freeze/sync state are cleared.
// Unlike Recover it does not model a crash — no peer resynchronization is
// started — it is the experiment engine's between-trials reset for reused
// worlds, where rebuilding every node per trial would dominate the run.
func (m *Manager) ResetVolatile() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = acl.NewStore()
	m.dropRecords()
	m.fires = nil
	now := m.env.Now()
	for _, ma := range m.apps {
		ma.reset(now)
		ma.frozen = false
		ma.syncing = false
		// sim.World.ResetTrial discarded their firings: none is stale.
		for _, t := range []*timer{&ma.sync, &ma.heartbeat, &ma.adapt} {
			t.disarm()
			t.stale = 0
		}
		m.startTicks(ma)
	}
}

// dropRecords cancels every update's and notice's retransmission and drops
// the records unrecycled: a late firing finds its own counting it stale.
func (m *Manager) dropRecords() {
	for _, out := range m.outstanding {
		out.timer.disarm()
	}
	for _, n := range m.notices {
		n.timer.disarm()
	}
	m.outstanding = make(map[wire.UpdateSeq]*outUpdate)
	m.notices = make(map[noticeKey]*outNotice)
}

func (m *Manager) startSync(app wire.AppID, ma *mgrApp) {
	for _, p := range ma.peers {
		m.env.Send(p, wire.SyncRequest{App: app})
	}
	ma.sync.arm(m.env.Env, ma.cfg.SyncRetry)
}

func (m *Manager) onSyncRequest(from wire.NodeID, req wire.SyncRequest) {
	ma, ok := m.apps[req.App]
	if !ok || ma.syncing {
		return // cannot serve authoritative state
	}
	applied := make(map[wire.NodeID]uint64, len(ma.applied))
	for o, c := range ma.applied {
		applied[o] = c
	}
	ops := make([]wire.Update, 0, len(ma.lastOp))
	for _, op := range ma.lastOp {
		ops = append(ops, op)
	}
	m.env.Send(from, wire.SyncResponse{
		App:     req.App,
		Entries: m.store.Entries(req.App),
		Applied: applied,
		Ops:     ops,
	})
}

func (m *Manager) onSyncResponse(resp wire.SyncResponse) {
	ma, ok := m.apps[resp.App]
	if !ok || !ma.syncing {
		return
	}
	ma.syncing = false
	ma.sync.disarm()
	// Install the snapshot for this app only: drop our (empty) entries for
	// the app and graft the peer's.
	for _, e := range m.store.Entries(resp.App) {
		m.store.Revoke(resp.App, e.User, e.Right)
	}
	for _, e := range resp.Entries {
		if e.App != resp.App {
			continue
		}
		m.store.Grant(resp.App, e.User, e.Right)
	}
	for origin, counter := range resp.Applied {
		if counter > ma.applied[origin] {
			ma.applied[origin] = counter
		}
	}
	// Inherit the last-writer-wins frontier so stale retransmissions
	// arriving after the sync cannot regress the snapshot.
	for _, op := range resp.Ops {
		if op.App != resp.App {
			continue
		}
		gk := grantKey{user: op.User, right: op.Right}
		if cur, ok := ma.lastOp[gk]; !ok || newerOp(op, cur) {
			ma.lastOp[gk] = op
		}
	}
	if own := ma.applied[m.id]; own > ma.counter {
		ma.counter = own
	}
	m.emit(trace.EventSynced, resp.App, int64(len(resp.Entries)))
	// Apply any updates buffered while syncing that the snapshot predates.
	for origin := range ma.buffer {
		m.drainBuffer(ma, origin)
	}
}

// SetPeers replaces Managers(A) for app, supporting the infrequent,
// out-of-band manager-set changes of §3.2 (coordinated through the trusted
// name service on the host side). The check quorum C is unchanged and must
// still fit the new set. Dissemination of updates already outstanding
// continues against the peer sets they were issued with.
func (m *Manager) SetPeers(app wire.AppID, peers []wire.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ma, ok := m.apps[app]
	if !ok {
		return fmt.Errorf("%w: unknown app %s", ErrConfig, app)
	}
	cfg := ma.cfg
	cfg.Peers = peers
	sys, err := cfg.validate(m.id)
	if err != nil {
		return err
	}
	ma.setPeers(m.id, cfg, sys, m.env.Now())
	return nil
}

// setPeers installs cfg's manager set with its quorum system. A peer not
// seen before counts as seen at now (optimistic: everyone reachable).
func (ma *mgrApp) setPeers(self wire.NodeID, cfg ManagerAppConfig, sys quorum.System, now time.Time) {
	ma.cfg, ma.sys = cfg, sys
	ma.members = slices.Compact(slices.Sorted(slices.Values(cfg.Peers)))
	ma.peers = slices.DeleteFunc(slices.Clone(cfg.Peers), func(p wire.NodeID) bool { return p == self })
	seen := make(map[wire.NodeID]time.Time, len(ma.peers))
	for _, p := range ma.peers {
		seen[p] = now
		if t, ok := ma.lastSeen[p]; ok {
			seen[p] = t
		}
	}
	ma.lastSeen = seen
}

// emitServed records that a Query was answered, carrying the query's trace
// ID: the manager-side half of the query-sent/query-served anchor pairs the
// flight analyzer uses to align drifting host clocks. Guarded by tracing so
// untraced Monte Carlo worlds pay nothing on the query hot path.
func (m *Manager) emitServed(from wire.NodeID, q *wire.Query, reason flight.Reason) {
	if !m.tracing {
		return
	}
	ev := decisionEvents[reason]
	m.tracer.Emit(trace.Event{
		Time: m.now, Node: m.id, Type: ev.typ,
		App: q.App, User: q.User, Trace: q.Trace, Word: ev.word, Peer: from,
	})
}

// emit emits an app-wide event (freeze, sync, Te change) with its number.
func (m *Manager) emit(t trace.EventType, app wire.AppID, num int64) {
	m.tracer.Emit(trace.Event{Time: m.now, Node: m.id, Type: t, App: app, Num: num})
}

// emitUpd emits an event about update upd, carrying its sequence so
// offline invariant checkers can reconstruct per-origin application order
// and quorum times. w is the op, or forced; from is the origin an applied
// update came from, "" otherwise.
func (m *Manager) emitUpd(t trace.EventType, upd *wire.Update, w trace.Word, from wire.NodeID) {
	m.tracer.Emit(trace.Event{
		Time: m.now, Node: m.id, Type: t, App: upd.App, User: upd.User, Seq: upd.Seq, Word: w, Peer: from,
	})
}
