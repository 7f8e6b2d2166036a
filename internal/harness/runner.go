package harness

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// Settle is the quiet tail run after the schedule so in-flight queries,
// retransmissions and post-heal probes resolve before oracles are judged.
const Settle = 90 * time.Second

// availWindow is how long after a heal the availability oracle waits for a
// confirmed access before declaring a liveness violation.
const availWindow = 60 * time.Second

// Options selects deliberate protocol misconfigurations, used to prove the
// oracles catch real bugs (the harness's self-tests, `acsim check -inject-*`,
// the catalog's stale-allow-demo). All-zero Options run the protocol as
// implemented.
type Options struct {
	// InflateTe makes managers hand out grants valid for 10×Te while hosts
	// and oracles still assume Te — the bug class of a manager ignoring the
	// configured revocation bound. Combined with DropRevokeNotices this
	// must trip the revocation-safety oracle.
	InflateTe bool
	// DropRevokeNotices silently discards every RevokeNotice on the wire,
	// disabling the proactive flush so revoked users survive in host caches
	// until expiry.
	DropRevokeNotices bool
}

// OracleReport summarizes one oracle over one or more runs.
type OracleReport struct {
	Name         string `json:"name"`
	Observations int    `json:"observations"`
	Violations   int    `json:"violations"`
}

// Outcome is what the runner observed over one run, the part of a result
// both drivers share.
type Outcome struct {
	// Checks counts judged checks issued, Decisions those that resolved;
	// the Allowed/Denied/DefaultAllowed split is over decisions.
	Checks         int
	Decisions      int
	Allowed        int
	Denied         int
	DefaultAllowed int
	// EffectiveTePeak is the widest effective Te observed on any manager,
	// sampled at every cache sweep and at the end (the base Te when the
	// adaptive controller never widened). TeMaxedAt is the run offset of the
	// first sweep that saw a manager at the AdaptiveTe.Max cap — the moment
	// the controller ran out of widening headroom (0 when it never did).
	EffectiveTePeak time.Duration
	TeMaxedAt       time.Duration
	// Oracles holds per-oracle observation/violation counts.
	Oracles []OracleReport
	// Violations are all invariant breaches, grouped by oracle in report
	// order, detection order within each.
	Violations []Violation
	// Flight is the merged multi-node flight dump captured when an oracle
	// fired (nil on clean runs): every node's recent protocol, quorum, and
	// injection history, with one mark record per violation. Write it out
	// with WriteFlightArtifact and feed it to cmd/acflight.
	Flight *flight.Dump
	// FlightPath is where WriteFlightArtifact stored the dump ("" until
	// written).
	FlightPath string
	// Net are the simulated network's delivery counters.
	Net simnet.Counters

	label string // names the run's flight artifact
}

// Failed reports whether any oracle fired.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// WriteFlightArtifact persists a failed run's flight dump as
// wanac-flight-<label>.jsonl, the label given to NewRunner, so reruns
// overwrite rather than accumulate. The directory is $WANAC_ARTIFACTS when
// set (created if needed), else the system temp directory. The path is
// recorded in FlightPath; a run without a dump is a no-op.
func (o *Outcome) WriteFlightArtifact() (string, error) {
	if o.Flight == nil {
		return "", nil
	}
	dir := os.Getenv("WANAC_ARTIFACTS")
	if dir == "" {
		dir = os.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "wanac-flight-"+o.label+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := o.Flight.Write(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	o.FlightPath = path
	return path, nil
}

// Runner replays one driver's schedule against a sim.World and judges it:
// it keeps the model of the latest admin state per user that the oracles
// judge against, maintained from quorum callbacks, and owns the five
// oracles. Two drivers script it — the seeded generator (RunScenario) and
// the scenario catalog (internal/scenario). Everything they schedule runs
// inside scheduler callbacks, so only async node APIs may be used on W.
type Runner struct {
	// W is the world under test.
	W *sim.World

	// users are the availability-probe candidates, in pick order.
	users []wire.UserID
	// revokedAt maps a user to the virtual time their latest revocation
	// reached an update quorum; absent while (re-)granted. Cleared
	// optimistically when a re-grant is submitted so a slow grant quorum
	// can't be misread as a stale revocation.
	revokedAt map[wire.UserID]time.Time
	// grantedAt maps a user to the time their latest grant reached quorum.
	grantedAt map[wire.UserID]time.Time
	// inflight serializes admin ops per user; overlapping ops on one user
	// would make the model ambiguous.
	inflight map[wire.UserID]bool

	// lastDisrupt / lastReset feed the availability oracle's interference
	// rule: disruptions after a heal void that heal's probes.
	lastDisrupt time.Time
	lastReset   []time.Time
	// probeDelay is when a heal's first probe runs: a few update-retry
	// rounds, so managers can reconverge first.
	probeDelay time.Duration

	start   time.Time
	oracles oracles
	out     Outcome
}

// NewRunner builds the world cfg describes with opt's bugs injected and
// every host cache bounded to cacheLimit entries (0 = unbounded). cfg.Users
// start granted; users are the candidates for post-heal availability probes,
// first eligible first. label names the run's flight artifact.
func NewRunner(label string, cfg sim.Config, opt Options, cacheLimit int, users []wire.UserID) (*Runner, error) {
	if opt.InflateTe {
		cfg.Te *= 10
	}
	w, err := sim.Build(cfg)
	if err != nil {
		return nil, err
	}
	if opt.DropRevokeNotices {
		w.Net.Filter = func(_, _ wire.NodeID, msg wire.Message) bool {
			_, isNotice := msg.(wire.RevokeNotice)
			return !isNotice
		}
	}
	if cacheLimit > 0 {
		for _, h := range w.Hosts {
			h.SetCacheLimit(cacheLimit)
		}
	}
	retry := cfg.UpdateRetry
	if retry == 0 {
		retry = core.DefaultUpdateRetry
	}
	p := cfg.Policy
	r := &Runner{
		W:          w,
		users:      users,
		revokedAt:  make(map[wire.UserID]time.Time),
		grantedAt:  make(map[wire.UserID]time.Time),
		inflight:   make(map[wire.UserID]bool),
		lastReset:  make([]time.Time, cfg.Hosts),
		probeDelay: 3 * retry,
		start:      w.Sched.Now(),
		// With the adaptive-Te controller on, managers may legally widen
		// grant expiry up to AdaptiveTe.Max: that cap, not the base Te, is
		// the bound the run is held to.
		oracles: newOracles(max(p.Te, cfg.Overload.AdaptiveTe.Max), p.QueryTimeout, cacheLimit, p.CheckQuorum, p.MaxAttempts),
		out:     Outcome{label: label},
	}
	for _, u := range cfg.Users {
		r.grantedAt[u] = r.start
	}
	return r, nil
}

// Run schedules a cache sweep every 15 s through horizon plus Settle, calls
// start (the driver's last setup step; may be nil), runs the world to the
// end and judges it. Equal-time events run in scheduling order, so a driver
// schedules its own setup before calling Run.
func (r *Runner) Run(horizon time.Duration, start func()) Outcome {
	for at := 15 * time.Second; at <= horizon+Settle; at += 15 * time.Second {
		r.W.Sched.After(at, r.sweepCaches)
	}
	if start != nil {
		start()
	}
	w := r.W
	w.RunFor(horizon + Settle)

	r.oracles.seq.analyze(w.Tracer.All(), w.UpdateQuorumTimes())
	r.oracles.aud.analyze(w.Tracer.All(), w.AuditRings())
	for _, m := range w.Managers {
		r.sampleTe(m)
	}
	out := r.out
	out.Oracles = r.oracles.reports()
	out.Violations = r.oracles.violations()
	out.Net = w.Net.Stats()
	if out.Failed() {
		out.Flight = markedFlightDump(w, out.Violations)
	}
	return out
}

// markedFlightDump merges every node's ring and appends one mark record per
// violation (pseudo-node "oracle"), so the violation instant sits on the
// timeline next to the history that led to it.
func markedFlightDump(w *sim.World, violations []Violation) *flight.Dump {
	dump := w.FlightDump()
	if dump == nil {
		return nil
	}
	for i, v := range violations {
		dump.Records = append(dump.Records, flight.Record{
			Seq: uint64(i), T: v.At, Node: "oracle", Kind: flight.KindMark,
			Type: "oracle-violation", Note: v.Oracle + ": " + v.Detail,
		})
	}
	dump.Header.Nodes = append(dump.Header.Nodes, "oracle")
	sort.Strings(dump.Header.Nodes)
	return dump
}

func (r *Runner) now() time.Time { return r.W.Sched.Now() }

// Check issues one access check of user's use right at host and judges the
// decision against the revocation bound. then, if not nil, runs after the
// judgement with the decision.
func (r *Runner) Check(host int, user wire.UserID, then func(core.Decision)) {
	r.out.Checks++
	start := r.now()
	at := r.revokedAt[user] // zero if not revoked
	r.W.Hosts[host].Check(r.W.Cfg.App, user, wire.RightUse, func(d core.Decision) {
		r.out.Decisions++
		switch {
		case d.Allowed && d.DefaultAllowed:
			r.out.DefaultAllowed++
		case d.Allowed:
			r.out.Allowed++
		default:
			r.out.Denied++
		}
		// Re-read at decision time: jurisdiction lapses if a re-grant (which
		// deletes the entry) or a newer revocation landed meanwhile.
		cur, still := r.revokedAt[user]
		r.oracles.rev.judge(user, host, start, at, still && cur.Equal(at), d.Allowed, d.DefaultAllowed)
		if then != nil {
			then(d)
		}
	})
}

// Submit issues op on user's use right through manager mgr, keeping the
// admin model in step with the quorum outcome, and reports whether it was
// issued: an op on a user with one already in flight is skipped, since the
// model could not attribute the resulting state to either. then, if not
// nil, runs once the op reaches its update quorum, after the model has
// recorded it.
func (r *Runner) Submit(mgr int, op wire.Op, user wire.UserID, then func()) bool {
	if r.inflight[user] {
		return false
	}
	r.inflight[user] = true
	if op == wire.OpAdd {
		// Clear optimistically at submission: once the re-grant is in the
		// system, an allow can no longer be blamed on the old revocation.
		delete(r.revokedAt, user)
	}
	r.W.Managers[mgr].Submit(wire.AdminOp{
		Op: op, App: r.W.Cfg.App, User: user, Right: wire.RightUse,
		Issuer: r.W.Cfg.Admin,
	}, func(reply wire.AdminReply) {
		r.inflight[user] = false
		if !reply.QuorumReached {
			return
		}
		if op == wire.OpRevoke {
			r.revokedAt[user] = r.now()
			delete(r.grantedAt, user)
		} else {
			r.grantedAt[user] = r.now()
		}
		if then != nil {
			then()
		}
	})
	return true
}

// RevokedAt reports when user's latest revocation reached its update quorum,
// and false while the user is (being re-)granted.
func (r *Runner) RevokedAt(user wire.UserID) (time.Time, bool) {
	at, ok := r.revokedAt[user]
	return at, ok
}

// Disrupt records a disruption (a cut, a crash, a fault window opening):
// availability probes armed before it are void.
func (r *Runner) Disrupt() { r.lastDisrupt = r.now() }

// Healed arms one post-heal liveness probe per host, targeting the first
// user whose grant has been stable for a while before the heal. A probe
// retries every 2 s from probeDelay on and is judged when availWindow
// closes, unless something since the heal interfered with it.
func (r *Runner) Healed() {
	healAt := r.now()
	user, ok := r.stableUser(healAt)
	if !ok {
		return
	}
	for hi := range r.W.Hosts {
		r.oracles.avail.obs++
		pr := &probe{host: hi, user: user, healAt: healAt}
		r.W.Sched.After(r.probeDelay, func() { r.probeOnce(pr) })
		r.W.Sched.After(availWindow, func() {
			if !r.interferes(pr) {
				r.oracles.avail.judge(pr, r.now())
			}
		})
	}
}

// stableUser picks the first user granted at least 10s before the heal and
// not currently revoked. A user with an admin op in flight still qualifies;
// interferes voids the probe if that op lands.
func (r *Runner) stableUser(healAt time.Time) (wire.UserID, bool) {
	for _, u := range r.users {
		g, ok := r.grantedAt[u]
		if !ok || healAt.Sub(g) < 10*time.Second {
			continue
		}
		if _, revoked := r.revokedAt[u]; revoked {
			continue
		}
		return u, true
	}
	return "", false
}

// interferes reports whether events since the heal invalidated the probe:
// a new disruption, a reset of the probed host, or a loss of the user's
// granted status (revocation or a pending admin op).
func (r *Runner) interferes(pr *probe) bool {
	if r.lastDisrupt.After(pr.healAt) || r.lastReset[pr.host].After(pr.healAt) {
		return true
	}
	if _, revoked := r.revokedAt[pr.user]; revoked {
		return true
	}
	return r.inflight[pr.user]
}

// probeOnce runs one availability probe round and reschedules until the
// window closes.
func (r *Runner) probeOnce(pr *probe) {
	if pr.done || pr.aborted {
		return
	}
	if r.interferes(pr) {
		pr.aborted = true
		return
	}
	if r.now().Sub(pr.healAt) > availWindow {
		return
	}
	r.W.Hosts[pr.host].Check(r.W.Cfg.App, pr.user, wire.RightUse, func(d core.Decision) {
		if d.Allowed {
			pr.done = true
		}
	})
	r.W.Sched.After(2*time.Second, func() { r.probeOnce(pr) })
}

// sweepCaches feeds one observation per host to the cache-hygiene oracle
// and samples the managers' effective Te (the adaptive controller decays
// when load subsides, so the peak must be observed mid-run).
func (r *Runner) sweepCaches() {
	now := r.now()
	for i := range r.W.Hosts {
		_, retained, expired := r.W.CacheObservation(i)
		r.oracles.cache.sweep(now, i, len(retained), len(expired))
	}
	capTe := r.W.Cfg.Overload.AdaptiveTe.Max
	for _, m := range r.W.Managers {
		if te := r.sampleTe(m); capTe > 0 && te >= capTe && r.out.TeMaxedAt == 0 {
			r.out.TeMaxedAt = now.Sub(r.start)
		}
	}
}

// sampleTe folds m's effective Te into the run's peak and returns it.
func (r *Runner) sampleTe(m *core.Manager) time.Duration {
	te := m.Stats().EffectiveTe
	r.out.EffectiveTePeak = max(r.out.EffectiveTePeak, te)
	return te
}
