package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// availWindow is the harness's alias for the shared post-heal liveness
// window (see AvailabilityWindow in attach.go).
const availWindow = AvailabilityWindow

// Options selects deliberate protocol misconfigurations, used by the
// harness's own tests to prove the oracles catch real bugs. All-zero
// Options run the protocol as implemented.
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

// Result is the outcome of one scenario execution.
type Result struct {
	Scenario Scenario
	// Decisions counts check probes that reached a decision.
	Decisions int
	// Invokes counts application invocations that produced a reply.
	Invokes int
	// Oracles holds per-oracle observation/violation counts.
	Oracles []OracleReport
	// Violations are all invariant breaches, in detection order.
	Violations []Violation
	// Flight is the merged multi-node flight dump captured when an oracle
	// fired (nil on clean runs): every node's recent protocol, quorum, and
	// injection history, with one mark record per violation. Write it out
	// with WriteFlightArtifact and feed it to cmd/acflight.
	Flight *flight.Dump
	// FlightPath is where WriteFlightArtifact stored the dump ("" until
	// written).
	FlightPath string `json:"flight_path,omitempty"`
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// runner drives one scenario against a sim.World, mirroring the bookkeeping
// of the revocation soak test: a model of the latest admin state per user,
// maintained from quorum callbacks, which the oracles judge against.
type runner struct {
	sc    Scenario
	opt   Options
	w     *sim.World
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

	oracles *OracleSet

	decisions int
	invokes   int
}

// latencyModel maps a Params.Latency tag to a simnet model.
func latencyModel(tag string) simnet.LatencyModel {
	switch tag {
	case "uniform":
		return simnet.Uniform{Min: 5 * time.Millisecond, Max: 60 * time.Millisecond}
	case "exp":
		return simnet.Exponential{Base: 5 * time.Millisecond, Mean: 25 * time.Millisecond, Cap: 500 * time.Millisecond}
	default:
		return simnet.Fixed{D: 10 * time.Millisecond}
	}
}

// worldConfig translates sampled Params (plus injected bugs) into a
// sim.Config.
func worldConfig(sc Scenario, opt Options) sim.Config {
	p := sc.Params
	mgrTe := p.Te
	if opt.InflateTe {
		mgrTe = 10 * p.Te
	}
	users := make([]wire.UserID, 0, p.Users)
	// Seed every other user with the use right so checks have authorized
	// traffic from t=0; the rest only gain access through grant events.
	for i := 0; i < p.Users; i += 2 {
		users = append(users, userID(i))
	}
	return sim.Config{
		App:      "app",
		Managers: p.Managers,
		Hosts:    p.Hosts,
		Policy: core.Policy{
			CheckQuorum:  p.CheckQuorum,
			Te:           p.Te,
			ClockBound:   p.ClockBound,
			QueryTimeout: p.QueryTimeout,
			MaxAttempts:  p.MaxAttempts,
			DefaultAllow: p.DefaultAllow,
			RefreshAhead: p.RefreshAhead,
		},
		Te:             mgrTe,
		ClockBound:     p.ClockBound,
		UpdateRetry:    p.UpdateRetry,
		Users:          users,
		HostClockRates: p.HostClockRates,
		UseNameService: p.UseNameService,
		NameServiceTTL: p.NameServiceTTL,
		Net: simnet.Config{
			Latency:   latencyModel(p.Latency),
			Loss:      p.Loss,
			Duplicate: p.Duplicate,
			Seed:      sc.Seed,
		},
		// Every harness world flies with the recorder on, so a failing seed
		// explains itself: the ring is sized to hold a full scenario's
		// events per node at harness scale. The audit ring rides along at
		// the same scale so the audit-completeness oracle sees every
		// decision's provenance.
		FlightRing: flightRing,
		AuditRing:  auditRing,
	}
}

// flightRing is the per-node flight ring size for harness runs.
const flightRing = 8192

// auditRing is the per-node audit ring size for harness runs.
const auditRing = 8192

func userID(i int) wire.UserID { return wire.UserID(fmt.Sprintf("u%d", i)) }

// RunScenario executes one scenario to completion and reports what the
// oracles saw. The execution is a pure function of (scenario, options):
// replaying the same pair reproduces the identical result.
func RunScenario(sc Scenario, opt Options) (*Result, error) {
	w, err := sim.Build(worldConfig(sc, opt))
	if err != nil {
		return nil, fmt.Errorf("harness: build world for seed %d: %w", sc.Seed, err)
	}
	p := sc.Params
	if opt.DropRevokeNotices {
		w.Net.Filter = func(_, _ wire.NodeID, msg wire.Message) bool {
			_, isNotice := msg.(wire.RevokeNotice)
			return !isNotice
		}
	}
	if p.CacheLimit > 0 {
		for _, h := range w.Hosts {
			h.SetCacheLimit(p.CacheLimit)
		}
	}

	r := &runner{
		sc:        sc,
		opt:       opt,
		w:         w,
		revokedAt: make(map[wire.UserID]time.Time),
		grantedAt: make(map[wire.UserID]time.Time),
		inflight:  make(map[wire.UserID]bool),
		lastReset: make([]time.Time, p.Hosts),
		oracles:   NewOracleSet(p.Te, p.QueryTimeout, p.CacheLimit, p.CheckQuorum, p.MaxAttempts),
	}
	r.users = make([]wire.UserID, p.Users)
	start := w.Sched.Now()
	for i := range r.users {
		r.users[i] = userID(i)
		if i%2 == 0 {
			r.grantedAt[r.users[i]] = start
		}
	}

	// Count invoke replies arriving back at the shared user agent.
	agent := wire.NodeID("harness-agent")
	w.Net.Attach(agent, simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if _, ok := msg.(wire.InvokeReply); ok {
			r.invokes++
		}
	}))

	// Schedule the whole script plus the periodic cache sweeps up front;
	// everything below runs inside scheduler callbacks, so only async node
	// APIs may be used.
	for _, e := range sc.Events {
		ev := e
		w.Sched.After(ev.At, func() { r.exec(ev, agent) })
	}
	for at := 15 * time.Second; at <= p.Horizon+Settle; at += 15 * time.Second {
		t := at
		w.Sched.After(t, func() { r.sweepCaches() })
	}

	w.RunFor(p.Horizon + Settle)

	r.oracles.AnalyzeTrace(w.Tracer.All(), w.UpdateQuorumTimes())
	r.oracles.AnalyzeAudit(w.Tracer.All(), w.AuditRings())

	res := &Result{
		Scenario:   sc,
		Decisions:  r.decisions,
		Invokes:    r.invokes,
		Oracles:    r.oracles.Reports(),
		Violations: r.oracles.Violations(),
	}
	if res.Failed() {
		res.Flight = MarkedFlightDump(w, res.Violations)
	}
	return res, nil
}

// MarkedFlightDump merges every node's ring and appends one mark record per
// violation (pseudo-node "oracle"), so the violation instant sits on the
// timeline next to the history that led to it.
func MarkedFlightDump(w *sim.World, violations []Violation) *flight.Dump {
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
	if len(violations) > 0 {
		dump.Header.Nodes = append(dump.Header.Nodes, "oracle")
		sort.Strings(dump.Header.Nodes)
	}
	return dump
}

// WriteFlightArtifact persists a failed result's merged flight dump next to
// the other CI artifacts and records the path in res.FlightPath. The
// directory is $WANAC_ARTIFACTS when set, else the system temp directory;
// the file is named by seed so reruns overwrite rather than accumulate. A
// result without a dump (clean run, or flight disabled) is a no-op.
func WriteFlightArtifact(res *Result) (string, error) {
	if res == nil || res.Flight == nil {
		return "", nil
	}
	path, err := WriteDumpArtifact("wanac-flight-seed"+strconv.FormatInt(res.Scenario.Seed, 10)+".jsonl", res.Flight)
	if err != nil {
		return "", err
	}
	res.FlightPath = path
	return path, nil
}

// WriteDumpArtifact persists a flight dump under the CI artifact directory
// ($WANAC_ARTIFACTS when set, else the system temp directory) with the
// given file name, creating the directory if needed. A nil dump is a no-op.
func WriteDumpArtifact(filename string, dump *flight.Dump) (string, error) {
	if dump == nil {
		return "", nil
	}
	dir := os.Getenv("WANAC_ARTIFACTS")
	if dir == "" {
		dir = os.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, filename)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := dump.Write(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// exec dispatches one scheduled event. It runs inside a scheduler callback.
func (r *runner) exec(e Event, agent wire.NodeID) {
	switch e.Kind {
	case EvGrant:
		r.submit(e, wire.OpAdd)
	case EvRevoke:
		r.submit(e, wire.OpRevoke)
	case EvCheck:
		r.check(e.Host, r.users[e.User])
	case EvInvoke:
		r.w.Net.Send(agent, sim.HostID(e.Host), wire.Invoke{
			App: r.w.Cfg.App, User: r.users[e.User], Payload: []byte("ping"),
		})
	case EvPartitionHost:
		r.lastDisrupt = r.now()
		r.w.PartitionHostFromManagers(e.Host, e.Mgrs...)
	case EvPartitionPair:
		r.lastDisrupt = r.now()
		r.w.PartitionManagerPair(e.Mgr, e.Mgr2)
	case EvHeal:
		r.w.Heal()
		r.armAvailability(r.now())
	case EvReset:
		r.lastDisrupt = r.now()
		r.lastReset[e.Host] = r.now()
		r.w.Hosts[e.Host].Reset()
	case EvNameChurn:
		if r.w.Name != nil {
			// Re-register the same manager set rotated by the event time:
			// deterministic churn that forces TTL re-resolution without
			// changing membership.
			m := r.sc.Params.Managers
			rot := int(e.At/time.Second) % m
			ids := make([]wire.NodeID, m)
			for i := 0; i < m; i++ {
				ids[i] = sim.ManagerID((i + rot) % m)
			}
			r.w.Name.SetManagers(r.w.Cfg.App, ids, r.sc.Params.NameServiceTTL)
		}
	}
}

// submit issues one admin op, keeping the per-user model in sync with the
// quorum outcome. Overlapping ops on the same user are skipped: the model
// could not attribute the resulting state to either op.
func (r *runner) submit(e Event, op wire.Op) {
	user := r.users[e.User]
	if r.inflight[user] {
		return
	}
	r.inflight[user] = true
	if op == wire.OpAdd {
		// Clear optimistically at submission: once the re-grant is in the
		// system, an allow can no longer be blamed on the old revocation.
		delete(r.revokedAt, user)
	}
	r.w.Managers[e.Mgr].Submit(wire.AdminOp{
		Op: op, App: r.w.Cfg.App, User: user, Right: wire.RightUse,
		Issuer: r.w.Cfg.Admin,
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
	})
}

// check issues one oracle-judged probe.
func (r *runner) check(host int, user wire.UserID) {
	start := r.now()
	at := r.revokedAt[user] // zero if not revoked
	r.w.Hosts[host].Check(r.w.Cfg.App, user, wire.RightUse, func(d core.Decision) {
		r.decisions++
		// Re-read at decision time: jurisdiction lapses if a re-grant (which
		// deletes the entry) or a newer revocation landed meanwhile.
		cur, still := r.revokedAt[user]
		r.oracles.JudgeCheck(user, host, start, at, still && cur.Equal(at), d.Allowed, d.DefaultAllowed)
	})
}

// sweepCaches feeds one observation per host to the cache-hygiene oracle.
func (r *runner) sweepCaches() {
	for i := range r.w.Hosts {
		_, retained, expired := r.w.CacheObservation(i)
		r.oracles.SweepCache(r.now(), i, len(retained), len(expired))
	}
}

// armAvailability creates one post-heal liveness probe per host, targeting a
// user whose grant has been stable for a while before the heal.
func (r *runner) armAvailability(healAt time.Time) {
	for hi := range r.w.Hosts {
		user, ok := r.stableUser(healAt)
		if !ok {
			continue
		}
		pr := r.oracles.ArmProbe(hi, user, healAt)
		// First probe waits out a few update-retry rounds so managers can
		// reconverge; retries then cover benign message loss.
		r.w.Sched.After(3*r.sc.Params.UpdateRetry, func() { r.probeOnce(pr) })
		r.w.Sched.After(availWindow, func() {
			if !r.interferes(pr) {
				r.oracles.JudgeProbe(pr, r.now(), availWindow)
			}
		})
	}
}

// stableUser picks the first user granted at least 10s before the heal and
// not currently revoked.
func (r *runner) stableUser(healAt time.Time) (wire.UserID, bool) {
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
func (r *runner) interferes(pr *Probe) bool {
	if r.lastDisrupt.After(pr.HealAt) || r.lastReset[pr.Host].After(pr.HealAt) {
		return true
	}
	if _, revoked := r.revokedAt[pr.User]; revoked {
		return true
	}
	return r.inflight[pr.User]
}

// probeOnce runs one availability probe round and reschedules until the
// window closes.
func (r *runner) probeOnce(pr *Probe) {
	if pr.Done || pr.Aborted {
		return
	}
	if r.interferes(pr) {
		pr.Aborted = true
		return
	}
	if r.now().Sub(pr.HealAt) > availWindow {
		return
	}
	r.w.Hosts[pr.Host].Check(r.w.Cfg.App, pr.User, wire.RightUse, func(d core.Decision) {
		if d.Allowed {
			pr.Done = true
		}
	})
	r.w.Sched.After(2*time.Second, func() { r.probeOnce(pr) })
}

func (r *runner) now() time.Time { return r.w.Sched.Now() }

// FormatFailure renders the replay artifact for a failed run: the seed, the
// violations, and the (possibly minimized) schedule.
func FormatFailure(res *Result) string {
	s := fmt.Sprintf("harness failure: %d violation(s) at seed %d\n", len(res.Violations), res.Scenario.Seed)
	for _, v := range res.Violations {
		s += "  " + v.String() + "\n"
	}
	s += "replay: go test ./internal/harness -run TestHarness -harness.seed=" +
		fmt.Sprint(res.Scenario.Seed) + "\n"
	if res.FlightPath != "" {
		s += "flight dump: " + res.FlightPath + " (render with: go run ./cmd/acflight " + res.FlightPath + ")\n"
	}
	s += res.Scenario.String()
	return s
}
