package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"wanac/internal/acl"
	"wanac/internal/audit"
	"wanac/internal/auth"
	"wanac/internal/ratelimit"
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
	env     Env
	tracer  trace.Tracer
	tracing bool          // false when tracer is trace.Nop: skip per-query events
	keyring *auth.Keyring // nil: trust AdminOp issuers (simulation)

	mu sync.Mutex
	// now is the clock reading of the current entry into the node: taken
	// once, after mu is acquired, and shared by everything the entry stamps
	// (trace events, spans, audit records, grant deadlines, Issued times).
	now         time.Time
	store       *acl.Store
	apps        map[wire.AppID]*mgrApp
	outstanding map[wire.UpdateSeq]*outUpdate
	notices     map[noticeKey]*outNotice
	fires       []func()
	// freezing is set once any app's heartbeat loop is armed (FreezeTi):
	// only that loop reads lastSeen, so only then does notePeer maintain it.
	freezing bool
	// servedNotes memoises the query-served trace note per (host, verdict).
	servedNotes map[servedKey]string
	stats       ManagerStats
	// tel, when set, mirrors the stats counters into a telemetry registry
	// and records per-query spans (see telemetry.go). Nil-guarded hooks.
	tel *ManagerTelemetry
	// aud, when set, records one response-kind audit entry per query
	// verdict (see audit.go). Nil-guarded like tel.
	aud *audit.Recorder
}

// mgrApp is the per-application dissemination and grant-tracking state.
type mgrApp struct {
	cfg     ManagerAppConfig
	peers   []wire.NodeID // excluding self
	m       int           // |Managers(A)| including self
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
	lastSeen map[wire.NodeID]time.Time
	frozen   bool
	hbTimer  TimerHandle
	// Recovery state.
	syncing   bool
	syncTimer TimerHandle
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
	adaptTimer   TimerHandle
}

type grantKey struct {
	user  wire.UserID
	right wire.Right
}

type servedKey struct {
	host    wire.NodeID
	verdict string
}

type noticeKey struct {
	seq  wire.UpdateSeq
	host wire.NodeID
}

// outUpdate tracks persistent dissemination of one update.
type outUpdate struct {
	app          wire.AppID
	upd          wire.Update
	pendingPeers map[wire.NodeID]struct{}
	acked        int
	quorumDone   bool
	retries      int
	timer        TimerHandle
	// issuedAt feeds the update-quorum latency histogram.
	issuedAt time.Time
	// Exactly one of replyCb / replyTo is used for quorum notification.
	replyCb func(wire.AdminReply)
	replyTo wire.NodeID
	reqID   uint64
}

// outNotice tracks retransmission of one revocation notice to one host.
type outNotice struct {
	app      wire.AppID
	user     wire.UserID
	right    wire.Right
	host     wire.NodeID
	deadline time.Time // zero: no expiry backstop (basic protocol)
	retries  int
	timer    TimerHandle
	// created feeds the revocation-propagation latency histogram.
	created time.Time
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
		env:         env,
		tracer:      tracer,
		tracing:     !nop,
		keyring:     keyring,
		store:       acl.NewStore(),
		apps:        make(map[wire.AppID]*mgrApp),
		outstanding: make(map[wire.UpdateSeq]*outUpdate),
		notices:     make(map[noticeKey]*outNotice),
		servedNotes: make(map[servedKey]string),
	}
}

// ID returns the manager's node id.
func (m *Manager) ID() wire.NodeID { return m.id }

// AddApp registers an application this manager manages.
func (m *Manager) AddApp(app wire.AppID, cfg ManagerAppConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(m.id); err != nil {
		return fmt.Errorf("app %s: %w", app, err)
	}
	peers := make([]wire.NodeID, 0, len(cfg.Peers)-1)
	for _, p := range cfg.Peers {
		if p != m.id {
			peers = append(peers, p)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.apps[app]; ok {
		return fmt.Errorf("%w: app %s already registered", ErrConfig, app)
	}
	ma := &mgrApp{
		cfg:      cfg,
		peers:    peers,
		m:        len(cfg.Peers),
		applied:  make(map[wire.NodeID]uint64),
		buffer:   make(map[wire.NodeID]map[uint64]wire.Update),
		forced:   make(map[wire.UpdateSeq]bool),
		lastOp:   make(map[grantKey]wire.Update),
		lastSeen: make(map[wire.NodeID]time.Time),
	}
	ma.resetOverload()
	now := m.env.Now()
	for _, p := range peers {
		ma.lastSeen[p] = now // optimistic: everyone reachable at start
	}
	m.apps[app] = ma
	if cfg.FreezeTi > 0 && len(peers) > 0 {
		m.scheduleHeartbeat(app, ma)
	}
	if cfg.Overload.AdaptiveTe.Max > 0 {
		m.scheduleAdapt(app, ma)
	}
	return nil
}

// resetOverload (re)builds the app's admission buckets and returns the
// effective Te to its base, for AddApp and the between-trials resets.
func (ma *mgrApp) resetOverload() {
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

// Frozen reports whether the freeze strategy currently withholds responses
// for app.
func (m *Manager) Frozen(app wire.AppID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ma, ok := m.apps[app]
	return ok && ma.frozen
}

// updateQuorum returns the number of managers (including the origin) whose
// acknowledgment guarantees the update: M - C + 1 (§3.3).
func (ma *mgrApp) updateQuorum() int { return ma.m - ma.cfg.CheckQuorum + 1 }

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
	m.withLock(func() { m.submitLocked(op, cb, "", 0) })
}

// withLock is an entry into the node: it runs fn under the manager lock
// with m.now freshly read, then runs the replies fn queued after releasing
// it. The replies are copied out (to the stack, for the usual few) so the
// queue keeps its buffer from one entry to the next.
func (m *Manager) withLock(fn func()) {
	m.mu.Lock()
	m.now = m.env.Now()
	fn()
	var buf [4]func()
	fires := append(buf[:0], m.fires...)
	clear(m.fires)
	m.fires = m.fires[:0]
	m.mu.Unlock()
	for _, f := range fires {
		f()
	}
}

func (m *Manager) reply(cb func(wire.AdminReply), r wire.AdminReply) {
	if cb == nil {
		return
	}
	m.fires = append(m.fires, func() { cb(r) })
}

func (m *Manager) submitLocked(op wire.AdminOp, cb func(wire.AdminReply), replyTo wire.NodeID, reqID uint64) {
	fail := func(msg string) {
		r := wire.AdminReply{ReqID: reqID, Err: msg}
		m.reply(cb, r)
		if replyTo != "" {
			m.env.Send(replyTo, r)
		}
	}
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
	m.stats.UpdatesIssued++
	if m.tel != nil {
		m.tel.updatesIssued.Inc()
	}
	m.emitUpd(trace.EventUpdateIssued, op.App, op.User, upd.Seq, op.Op.String())

	out := &outUpdate{
		app:          op.App,
		upd:          upd,
		pendingPeers: make(map[wire.NodeID]struct{}, len(ma.peers)),
		replyCb:      cb,
		replyTo:      replyTo,
		reqID:        reqID,
		issuedAt:     m.now,
	}
	for _, p := range ma.peers {
		out.pendingPeers[p] = struct{}{}
	}
	m.outstanding[upd.Seq] = out

	if replyTo != "" {
		m.env.Send(replyTo, wire.AdminReply{ReqID: reqID, Accepted: true})
	}
	m.transmitUpdate(ma, out)
	m.checkUpdateQuorum(ma, out)

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
			m.withLock(func() {
				// Authorized at grant time: issue directly even if the
				// original issuer has since lost the manage right.
				cur, ok := m.apps[app]
				if !ok || cur.syncing {
					return
				}
				m.issueLocked(cur, revoke, nil, "", 0)
			})
		})
	}
}

// transmitUpdate sends the update to all unacked peers and arms the
// retransmission timer (persistent dissemination, §3.3).
func (m *Manager) transmitUpdate(ma *mgrApp, out *outUpdate) {
	for _, p := range sortedPeers(out.pendingPeers) {
		m.env.Send(p, out.upd)
	}
	if len(out.pendingPeers) == 0 {
		return
	}
	seq := out.upd.Seq
	out.timer = m.env.SetTimer(ma.cfg.UpdateRetry, func() {
		m.withLock(func() { m.onUpdateRetry(seq) })
	})
}

func (m *Manager) onUpdateRetry(seq wire.UpdateSeq) {
	out, ok := m.outstanding[seq]
	if !ok {
		return
	}
	ma, ok := m.apps[out.app]
	if !ok {
		return
	}
	out.retries++
	if ma.cfg.MaxUpdateRetries > 0 && out.retries >= ma.cfg.MaxUpdateRetries {
		// Gave up: the paper would keep trying (or escalate to a human,
		// §3.3); bounded deployments report failure instead.
		if !out.quorumDone {
			r := wire.AdminReply{ReqID: out.reqID, Accepted: true, Err: "update quorum not reached"}
			m.reply(out.replyCb, r)
			if out.replyTo != "" {
				m.env.Send(out.replyTo, r)
			}
		}
		delete(m.outstanding, seq)
		return
	}
	m.transmitUpdate(ma, out)
}

func (m *Manager) checkUpdateQuorum(ma *mgrApp, out *outUpdate) {
	if out.quorumDone {
		return
	}
	if 1+out.acked < ma.updateQuorum() {
		return
	}
	out.quorumDone = true
	m.stats.QuorumsReached++
	if m.tel != nil {
		m.tel.quorums.Inc()
		observeSince(m.tel.quorumLatency, out.issuedAt, m.now)
	}
	m.emitUpd(trace.EventUpdateQuorum, out.app, out.upd.User, out.upd.Seq,
		out.upd.Op.String())
	r := wire.AdminReply{ReqID: out.reqID, Accepted: true, QuorumReached: true}
	m.reply(out.replyCb, r)
	if out.replyTo != "" {
		m.env.Send(out.replyTo, r)
	}
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
		vouched, _ := m.store.Withdraw(app, upd.User, upd.Right)
		m.forwardRevocation(app, ma, upd, vouched)
	}
	return true
}

// forwardRevocation notifies the hosts the revoked right was vouched to, in
// host-id order.
func (m *Manager) forwardRevocation(app wire.AppID, ma *mgrApp, upd wire.Update, vouched []acl.Vouch) {
	for _, v := range vouched {
		if !v.Deadline.IsZero() && !m.now.Before(v.Deadline) {
			continue // cached copy already expired; no notice needed
		}
		n := &outNotice{
			app: app, user: upd.User, right: upd.Right,
			host: v.Host, deadline: v.Deadline, created: m.now,
		}
		key := noticeKey{seq: upd.Seq, host: v.Host}
		m.notices[key] = n
		m.transmitNotice(ma, key, n, upd.Seq)
	}
}

func (m *Manager) transmitNotice(ma *mgrApp, key noticeKey, n *outNotice, seq wire.UpdateSeq) {
	m.env.Send(n.host, wire.RevokeNotice{App: n.app, User: n.user, Right: n.right, Seq: seq})
	n.timer = m.env.SetTimer(ma.cfg.UpdateRetry, func() {
		m.withLock(func() { m.onNoticeRetry(key, seq) })
	})
}

func (m *Manager) onNoticeRetry(key noticeKey, seq wire.UpdateSeq) {
	n, ok := m.notices[key]
	if !ok {
		return
	}
	ma, ok := m.apps[n.app]
	if !ok {
		return
	}
	n.retries++
	// §3.4: stop resending once the grant would have expired on its own.
	if !n.deadline.IsZero() && !m.now.Before(n.deadline) {
		delete(m.notices, key)
		return
	}
	if ma.cfg.MaxUpdateRetries > 0 && n.retries >= ma.cfg.MaxUpdateRetries {
		delete(m.notices, key)
		return
	}
	m.transmitNotice(ma, key, n, seq)
}

// HandleMessage dispatches network traffic.
func (m *Manager) HandleMessage(from wire.NodeID, msg wire.Message) {
	m.withLock(func() {
		// Any direct traffic from a peer proves reachability for the freeze
		// strategy's accessibility tracking.
		m.notePeer(from)
		switch mm := msg.(type) {
		case wire.Query:
			m.onQuery(from, mm)
		case wire.Update:
			m.onUpdate(from, mm)
		case wire.UpdateAck:
			m.onUpdateAck(from, mm)
		case wire.RevokeAck:
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
	})
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
func (m *Manager) onQuery(from wire.NodeID, q wire.Query) {
	ma, ok := m.apps[q.App]
	if !ok {
		m.served(nil, from, q, "unknown-app", audit.ReasonQueryUnknownApp)
		m.env.Send(from, wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Trace: q.Trace})
		return
	}
	if ma.syncing || ma.frozen {
		m.stats.QueriesFrozen++
		if m.tel != nil {
			m.tel.queriesFrozen.Inc()
		}
		m.served(ma, from, q, "frozen", audit.ReasonQueryFrozen)
		m.env.Send(from, wire.Response{
			App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Frozen: true, Trace: q.Trace,
		})
		return
	}
	if !m.admitQuery(ma, from) {
		m.shedQuery(ma, from, q)
		return
	}
	m.stats.QueriesServed++
	if m.tel != nil {
		m.tel.queriesServed.Inc()
	}
	resp := wire.Response{App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Trace: q.Trace}
	// The verdict and the grant's bookkeeping are one probe of the store:
	// a granted query is tracked so a future revocation can be forwarded
	// (§3.1). The deadline is when the host's cached copy must have expired
	// in real time: te/b covers the slowest legal host clock, counted from
	// m.now — read after the query arrived, so after the host stamped it.
	var deadline time.Time
	if ma.hold > 0 {
		deadline = m.now.Add(ma.hold)
	}
	if m.store.Vouch(q.App, q.User, q.Right, from, deadline, m.now) {
		resp.Granted, resp.Expire = true, ma.expire
		m.served(ma, from, q, "granted", audit.ReasonQueryGranted)
	} else {
		m.served(ma, from, q, "denied", audit.ReasonQueryDenied)
	}
	m.env.Send(from, resp)
}

// served tells the attached observers a query's verdict: the span, the
// query-served trace event and the response audit record, in that order. ma
// is nil for unknown-app verdicts.
func (m *Manager) served(ma *mgrApp, from wire.NodeID, q wire.Query, verdict string, reason audit.Reason) {
	if m.tel.spanning() {
		m.querySpan(from, q, verdict)
	}
	m.emitServed(from, q, verdict)
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
func (m *Manager) shedQuery(ma *mgrApp, from wire.NodeID, q wire.Query) {
	m.stats.QueriesShed++
	ma.shedWindow++
	if m.tel != nil {
		m.tel.queriesShed.Inc()
		if m.tel.spanning() {
			m.querySpan(from, q, "shed")
		}
	}
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
			Note: "host=" + string(from) + " retry=" + retry.String(),
		})
	}
	if m.aud != nil {
		m.auditResponse(ma, from, q, audit.ReasonQueryShed)
	}
	m.env.Send(from, wire.Busy{App: q.App, Nonce: q.Nonce, RetryAfter: retry, Trace: q.Trace})
}

// scheduleAdapt arms the adaptive-Te controller tick for one app.
func (m *Manager) scheduleAdapt(app wire.AppID, ma *mgrApp) {
	interval := ma.cfg.Overload.AdaptiveTe.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ma.adaptTimer = m.env.SetTimer(interval, func() {
		m.withLock(func() { m.onAdaptTick(app) })
	})
}

// onAdaptTick evaluates one controller interval: shedding at or above the
// threshold widens the effective Te by Step (capped at Max); a quiet
// interval decays it by Step back toward the configured base. Widening
// stretches grant expiry — hosts re-verify less often, which sheds load at
// the source — while Max keeps the worst-case revocation latency stated.
func (m *Manager) onAdaptTick(app wire.AppID) {
	ma, ok := m.apps[app]
	if !ok {
		return
	}
	cfg := ma.cfg.Overload.AdaptiveTe
	step := cfg.Step
	if step == 0 {
		step = 2
	}
	threshold := cfg.ShedThreshold
	if threshold == 0 {
		threshold = 1
	}
	prev := ma.effTe
	if ma.shedWindow >= threshold {
		next := time.Duration(float64(ma.effTe) * step)
		if next > cfg.Max {
			next = cfg.Max
		}
		ma.setEffTe(next)
	} else if ma.effTe > ma.cfg.Te {
		next := time.Duration(float64(ma.effTe) / step)
		if next < ma.cfg.Te {
			next = ma.cfg.Te
		}
		ma.setEffTe(next)
	}
	if ma.effTe != prev {
		if ma.effTe > prev {
			m.stats.TeWidenings++
			if m.tel != nil {
				m.tel.teWidenings.Inc()
			}
		}
		m.emit(trace.EventTeAdapted, app, "", "te="+ma.effTe.String())
	}
	ma.shedWindow = 0
	m.scheduleAdapt(app, ma)
}

// onUpdate applies peer updates in per-origin counter order, buffering
// gaps; acks are sent only for applied updates so that the update quorum
// reflects managers that actually know the operation.
func (m *Manager) onUpdate(_ wire.NodeID, upd wire.Update) {
	ma, ok := m.apps[upd.App]
	if !ok || !m.isPeer(ma, upd.Seq.Origin) {
		return
	}
	if ma.syncing {
		m.bufferUpdate(ma, upd)
		return
	}
	origin := upd.Seq.Origin
	switch {
	case upd.Seq.Counter <= ma.applied[origin]:
		// Duplicate (retransmission after a lost ack): re-ack.
		m.env.Send(origin, wire.UpdateAck{Seq: upd.Seq})
	case upd.Seq.Counter == ma.applied[origin]+1:
		m.applyInOrder(ma, upd)
		m.drainBuffer(ma, origin)
	default:
		m.bufferUpdate(ma, upd)
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
			m.stats.UpdatesApplied++
			if m.tel != nil {
				m.tel.updatesApplied.Inc()
			}
			m.emitUpd(trace.EventUpdateApplied, upd.App, upd.User, upd.Seq,
				upd.Op.String()+" from "+string(origin))
		} else {
			m.stats.UpdatesStale++
			if m.tel != nil {
				m.tel.updatesStale.Inc()
			}
		}
	} else {
		delete(ma.forced, upd.Seq)
	}
	ma.applied[origin] = upd.Seq.Counter
	m.env.Send(origin, wire.UpdateAck{Seq: upd.Seq})
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

func (m *Manager) isPeer(ma *mgrApp, id wire.NodeID) bool {
	if id == m.id {
		return false
	}
	for _, p := range ma.peers {
		if p == id {
			return true
		}
	}
	return false
}

func (m *Manager) onUpdateAck(from wire.NodeID, ack wire.UpdateAck) {
	out, ok := m.outstanding[ack.Seq]
	if !ok {
		return
	}
	if _, pending := out.pendingPeers[from]; !pending {
		return
	}
	delete(out.pendingPeers, from)
	out.acked++
	ma, ok := m.apps[out.app]
	if !ok {
		return
	}
	m.checkUpdateQuorum(ma, out)
	if len(out.pendingPeers) == 0 {
		if out.timer != nil {
			out.timer.Stop()
		}
		delete(m.outstanding, ack.Seq)
	}
}

func (m *Manager) onRevokeAck(ack wire.RevokeAck) {
	// Notices are keyed by (seq, host); the ack does not carry the host id
	// explicitly, so search the small notice table.
	for k, n := range m.notices {
		if k.seq == ack.Seq && n.app == ack.App && n.user == ack.User {
			if n.timer != nil {
				n.timer.Stop()
			}
			if m.tel != nil {
				observeSince(m.tel.revocationLag, n.created, m.now)
			}
			delete(m.notices, k)
		}
	}
}

// ForceApply injects an update out of band, modeling the paper's human
// operator entering the update manually at a manager that the origin cannot
// reach (§3.3). The update takes effect immediately; when the original
// eventually arrives through the network it is acknowledged without being
// applied twice.
func (m *Manager) ForceApply(upd wire.Update) (err error) {
	m.withLock(func() {
		ma, ok := m.apps[upd.App]
		if !ok {
			err = fmt.Errorf("%w: unknown app %s", ErrConfig, upd.App)
			return
		}
		if upd.Seq.Counter <= ma.applied[upd.Seq.Origin] || ma.forced[upd.Seq] {
			return // already known
		}
		m.applyLocked(upd.App, ma, upd)
		ma.forced[upd.Seq] = true
		m.emitUpd(trace.EventUpdateApplied, upd.App, upd.User, upd.Seq, "forced")
	})
	return err
}

// scheduleHeartbeat arms the freeze-strategy probe loop for one app.
func (m *Manager) scheduleHeartbeat(app wire.AppID, ma *mgrApp) {
	m.freezing = true
	ma.hbTimer = m.env.SetTimer(ma.cfg.HeartbeatEvery, func() {
		m.withLock(func() { m.onHeartbeatTick(app) })
	})
}

func (m *Manager) onHeartbeatTick(app wire.AppID) {
	ma, ok := m.apps[app]
	if !ok {
		return
	}
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
		m.emit(trace.EventFrozen, app, "", "")
	} else if !stale && ma.frozen {
		ma.frozen = false
		m.emit(trace.EventUnfrozen, app, "", "")
	}
	m.scheduleHeartbeat(app, ma)
}

// Recover models a manager restart after a crash: all volatile state is
// discarded and the manager refuses to answer queries until it has
// retrieved current access control information from a peer (§3.4).
// Single-manager deployments have no peer to sync from and resume
// immediately with whatever was seeded.
func (m *Manager) Recover() {
	m.withLock(func() {
		m.store = acl.NewStore()
		m.outstanding = make(map[wire.UpdateSeq]*outUpdate)
		for _, n := range m.notices {
			if n.timer != nil {
				n.timer.Stop()
			}
		}
		m.notices = make(map[noticeKey]*outNotice)
		for app, ma := range m.apps {
			ma.counter = 0
			ma.applied = make(map[wire.NodeID]uint64)
			ma.buffer = make(map[wire.NodeID]map[uint64]wire.Update)
			ma.forced = make(map[wire.UpdateSeq]bool)
			ma.lastOp = make(map[grantKey]wire.Update)
			ma.resetOverload()
			for _, p := range ma.peers {
				ma.lastSeen[p] = m.now
			}
			if len(ma.peers) == 0 {
				continue
			}
			ma.syncing = true
			m.startSync(app, ma)
		}
	})
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
	for _, out := range m.outstanding {
		if out.timer != nil {
			out.timer.Stop()
		}
	}
	m.outstanding = make(map[wire.UpdateSeq]*outUpdate)
	for _, n := range m.notices {
		if n.timer != nil {
			n.timer.Stop()
		}
	}
	m.notices = make(map[noticeKey]*outNotice)
	m.fires = nil
	now := m.env.Now()
	for app, ma := range m.apps {
		ma.counter = 0
		ma.applied = make(map[wire.NodeID]uint64)
		ma.buffer = make(map[wire.NodeID]map[uint64]wire.Update)
		ma.forced = make(map[wire.UpdateSeq]bool)
		ma.lastOp = make(map[grantKey]wire.Update)
		for _, p := range ma.peers {
			ma.lastSeen[p] = now
		}
		ma.frozen = false
		ma.syncing = false
		if ma.syncTimer != nil {
			ma.syncTimer.Stop()
			ma.syncTimer = nil
		}
		if ma.hbTimer != nil {
			ma.hbTimer.Stop()
			ma.hbTimer = nil
		}
		if ma.adaptTimer != nil {
			ma.adaptTimer.Stop()
			ma.adaptTimer = nil
		}
		ma.resetOverload()
		if ma.cfg.FreezeTi > 0 && len(ma.peers) > 0 {
			m.scheduleHeartbeat(app, ma)
		}
		if ma.cfg.Overload.AdaptiveTe.Max > 0 {
			m.scheduleAdapt(app, ma)
		}
	}
}

func (m *Manager) startSync(app wire.AppID, ma *mgrApp) {
	for _, p := range ma.peers {
		m.env.Send(p, wire.SyncRequest{App: app})
	}
	ma.syncTimer = m.env.SetTimer(ma.cfg.SyncRetry, func() {
		m.withLock(func() {
			cur, ok := m.apps[app]
			if !ok || !cur.syncing {
				return
			}
			m.startSync(app, cur)
		})
	})
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
	if ma.syncTimer != nil {
		ma.syncTimer.Stop()
	}
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
	m.emit(trace.EventSynced, resp.App, "", "entries="+strconv.Itoa(len(resp.Entries)))
	// Apply any updates buffered while syncing that the snapshot predates.
	for origin := range ma.buffer {
		m.drainBuffer(ma, origin)
	}
}

// Entries exposes the local ACL view (for tools and tests).
func (m *Manager) Entries(app wire.AppID) []wire.ACLEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Entries(app)
}

// Syncing reports whether the manager is still recovering state for app.
func (m *Manager) Syncing(app wire.AppID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ma, ok := m.apps[app]
	return ok && ma.syncing
}

// sortedPeers returns map keys in lexical order so retransmission rounds
// are deterministic (simulation reproducibility depends on send order).
func sortedPeers(set map[wire.NodeID]struct{}) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	if err := cfg.validate(m.id); err != nil {
		return err
	}
	newPeers := make([]wire.NodeID, 0, len(peers)-1)
	for _, p := range peers {
		if p != m.id {
			newPeers = append(newPeers, p)
		}
	}
	ma.cfg = cfg
	ma.peers = newPeers
	ma.m = len(peers)
	now := m.env.Now()
	seen := make(map[wire.NodeID]time.Time, len(newPeers))
	for _, p := range newPeers {
		if t, ok := ma.lastSeen[p]; ok {
			seen[p] = t
		} else {
			seen[p] = now
		}
	}
	ma.lastSeen = seen
	return nil
}

// emitServed records that a Query was answered, carrying the query's trace
// ID: the manager-side half of the query-sent/query-served anchor pairs the
// flight analyzer uses to align drifting host clocks. Guarded by tracing so
// untraced Monte Carlo worlds pay nothing on the query hot path.
func (m *Manager) emitServed(from wire.NodeID, q wire.Query, verdict string) {
	if !m.tracing {
		return
	}
	m.tracer.Emit(trace.Event{
		Time: m.now, Node: m.id, Type: trace.EventQueryServed,
		App: q.App, User: q.User, Trace: q.Trace,
		Note: memo(m.servedNotes, servedKey{from, verdict}, func() string {
			return "host=" + string(from) + " " + verdict
		}),
	})
}

func (m *Manager) emit(t trace.EventType, app wire.AppID, user wire.UserID, note string) {
	m.tracer.Emit(trace.Event{
		Time: m.now, Node: m.id, Type: t, App: app, User: user, Note: note,
	})
}

// emitUpd emits an event carrying the update sequence it refers to, so
// offline invariant checkers can reconstruct per-origin application order
// and quorum times.
func (m *Manager) emitUpd(t trace.EventType, app wire.AppID, user wire.UserID, seq wire.UpdateSeq, note string) {
	m.tracer.Emit(trace.Event{
		Time: m.now, Node: m.id, Type: t, App: app, User: user, Seq: seq, Note: note,
	})
}
