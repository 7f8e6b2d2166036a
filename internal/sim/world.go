package sim

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"wanac/internal/acl"
	"wanac/internal/audit"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/nameservice"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// Config describes a simulated deployment of one application.
type Config struct {
	// App is the application under access control.
	App wire.AppID
	// Managers is M, Hosts the number of application hosts.
	Managers int
	Hosts    int
	// Policy is the host-side policy (C, Te, R, timeouts).
	Policy core.Policy
	// Manager-side knobs; CheckQuorum is taken from Policy.CheckQuorum.
	Te               time.Duration
	ClockBound       float64
	UpdateRetry      time.Duration
	MaxUpdateRetries int
	FreezeTi         time.Duration
	HeartbeatEvery   time.Duration
	// Overload is the manager-side admission-control configuration (token
	// buckets, adaptive Te, Retry-After clamp), applied to every manager.
	Overload core.OverloadConfig
	// ManagerCapacity, when its ServiceTime is positive, installs a
	// finite-capacity server on every manager: inbound messages queue in
	// two bounded lanes and are processed at a fixed rate, so sustained
	// query floods create genuine manager overload instead of being
	// absorbed instantaneously. Hosts stay infinite-capacity.
	ManagerCapacity simnet.Capacity
	// Admin is a user seeded with the manage right on every manager, so
	// tests and experiments can issue updates. Defaults to "admin".
	Admin wire.UserID
	// Users are seeded with the use right on every manager.
	Users []wire.UserID
	// HostClockRates optionally assigns a clock rate per host (length must
	// match Hosts); unset hosts get perfect clocks.
	HostClockRates []float64
	// UseNameService routes manager discovery through a name service node
	// instead of static configuration.
	UseNameService bool
	NameServiceTTL time.Duration
	// Net configures the underlying network.
	Net simnet.Config
	// Application, when non-nil, is installed on every host.
	Application core.Application
	// NoTrace builds the world with a no-op tracer: no events are recorded
	// and nodes skip building event detail strings. Monte Carlo trials set it
	// — they only inspect decisions and replies, and tracing is pure overhead
	// on their hot path. World.Tracer is nil when NoTrace is set.
	NoTrace bool
	// Telemetry, when non-nil, instruments every node against this registry
	// with the same metric families the live acnode binary exports, plus
	// simnet delivery counters. Reading the registry (WritePrometheus) is
	// only consistent while the scheduler is idle — the same constraint as
	// Net.Stats.
	Telemetry *telemetry.Registry
	// Spans, when non-nil alongside Telemetry, receives check-round spans
	// from every host and manager (see telemetry.SpanBuffer / SpanWriter).
	Spans telemetry.SpanRecorder
	// FlightRing, when > 0, attaches a flight recorder holding that many
	// records to every node — stamped by each node's own (possibly
	// drifting) clock — plus a "net" pseudo-node recorder capturing
	// topology injections on the scheduler's clock. See World.Flights and
	// World.FlightDump. Ignored under NoTrace (flight records are built
	// from trace events).
	FlightRing int
	// AuditRing, when > 0, attaches a decision-provenance audit ring
	// holding that many records to every node (internal/audit): hosts
	// record one entry per decision, managers one per query verdict,
	// each stamped by the node's own clock. Independent of NoTrace —
	// audit records are emitted directly, not derived from trace events.
	// See World.Audits and World.AuditRings.
	AuditRing int
}

// World is a fully wired simulated deployment.
type World struct {
	Cfg      Config
	Sched    *simnet.Scheduler
	Net      *simnet.Network
	Tracer   *trace.Collector
	Managers []*core.Manager
	Hosts    []*core.Host
	Name     *nameservice.Server
	// AppCalls counts invocations that reached the wrapped application, per
	// host index (used by the component-wrapper experiment).
	AppCalls []int
	// Flights holds each node's flight recorder (plus the "net"
	// pseudo-node) when Config.FlightRing is set; nil otherwise.
	Flights map[wire.NodeID]*flight.Recorder
	// Audits holds each node's audit recorder when Config.AuditRing is
	// set; nil otherwise.
	Audits map[wire.NodeID]*audit.Recorder
}

// ManagerID returns the node id of manager i.
func ManagerID(i int) wire.NodeID { return wire.NodeID("m" + strconv.Itoa(i)) }

// HostID returns the node id of host i.
func HostID(i int) wire.NodeID { return wire.NodeID("h" + strconv.Itoa(i)) }

// NameID is the name service node id.
const NameID wire.NodeID = "ns"

// Build wires a complete world: managers with the app registered and seeded
// state, hosts with the policy, optional name service, all attached to a
// fresh virtual-time network.
func Build(cfg Config) (*World, error) {
	if cfg.Managers < 1 {
		return nil, fmt.Errorf("sim: need at least one manager")
	}
	if cfg.Hosts < 0 {
		return nil, fmt.Errorf("sim: negative host count")
	}
	if cfg.App == "" {
		cfg.App = "app"
	}
	if cfg.Admin == "" {
		cfg.Admin = "admin"
	}

	sched := simnet.NewScheduler()
	net := simnet.New(sched, cfg.Net)
	var (
		collector *trace.Collector
		tracer    trace.Tracer = trace.Nop{}
	)
	if !cfg.NoTrace {
		collector = trace.NewCollector(0)
		tracer = collector
	}
	if cfg.Telemetry != nil {
		tracer = telemetry.InstrumentTracer(cfg.Telemetry, tracer)
		registerNetCounters(cfg.Telemetry, net)
	}
	w := &World{
		Cfg:      cfg,
		Sched:    sched,
		Net:      net,
		Tracer:   collector,
		AppCalls: make([]int, cfg.Hosts),
	}

	// Flight recording: each node's tracer is teed into a per-node ring
	// stamped by that node's clock; the network's injection observer feeds
	// a "net" pseudo-node ring on the scheduler clock. nodeTracer picks the
	// per-node chain (the shared tracer when flight is off).
	flightOn := cfg.FlightRing > 0 && !cfg.NoTrace
	nodeTracer := func(id wire.NodeID, now func() time.Time) trace.Tracer {
		if !flightOn {
			return tracer
		}
		rec := flight.NewRecorder(string(id), cfg.FlightRing, now)
		w.Flights[id] = rec
		return flight.Tee(rec, tracer)
	}
	if flightOn {
		w.Flights = make(map[wire.NodeID]*flight.Recorder)
		netRec := flight.NewRecorder("net", cfg.FlightRing, sched.Now)
		w.Flights["net"] = netRec
		net.Observer = func(ev simnet.NetEvent) {
			note := ev.Note
			switch {
			case ev.A != "" && ev.B != "":
				note = string(ev.A) + "-" + string(ev.B)
				if ev.Note != "" {
					note += " " + ev.Note
				}
			case ev.A != "":
				note = string(ev.A)
			}
			netRec.Record(flight.Record{Kind: flight.KindNet, Type: ev.Type, Note: note})
		}
	}

	// Audit recording: one per-node provenance ring, stamped by the node's
	// own clock, emitted at the decision sites themselves (independent of
	// the trace chain above).
	newAudit := func(id wire.NodeID, now func() time.Time) *audit.Recorder {
		if cfg.AuditRing <= 0 {
			return nil
		}
		rec := audit.NewRecorder(string(id), cfg.AuditRing, now)
		if w.Audits == nil {
			w.Audits = make(map[wire.NodeID]*audit.Recorder)
		}
		w.Audits[id] = rec
		return rec
	}

	managerIDs := make([]wire.NodeID, cfg.Managers)
	for i := range managerIDs {
		managerIDs[i] = ManagerID(i)
	}

	mCfg := core.ManagerAppConfig{
		Peers:            managerIDs,
		CheckQuorum:      cfg.Policy.CheckQuorum,
		Te:               cfg.Te,
		ClockBound:       cfg.ClockBound,
		UpdateRetry:      cfg.UpdateRetry,
		MaxUpdateRetries: cfg.MaxUpdateRetries,
		FreezeTi:         cfg.FreezeTi,
		HeartbeatEvery:   cfg.HeartbeatEvery,
		Overload:         cfg.Overload,
	}
	for i := 0; i < cfg.Managers; i++ {
		env := NewEnv(managerIDs[i], net)
		mgr := core.NewManager(managerIDs[i], env, nodeTracer(managerIDs[i], env.Now), nil)
		if err := mgr.AddApp(cfg.App, mCfg); err != nil {
			return nil, fmt.Errorf("manager %d: %w", i, err)
		}
		mgr.Seed(cfg.App, cfg.Admin, wire.RightManage)
		for _, u := range cfg.Users {
			mgr.Seed(cfg.App, u, wire.RightUse)
		}
		if cfg.Telemetry != nil {
			core.InstrumentManager(cfg.Telemetry, cfg.Spans, mgr)
		}
		if rec := newAudit(managerIDs[i], env.Now); rec != nil {
			mgr.SetAudit(rec)
		}
		net.Attach(managerIDs[i], mgr)
		if cfg.ManagerCapacity.ServiceTime > 0 {
			net.SetCapacity(managerIDs[i], cfg.ManagerCapacity)
		}
		w.Managers = append(w.Managers, mgr)
	}

	if cfg.UseNameService {
		env := NewEnv(NameID, net)
		w.Name = nameservice.New(NameID, env)
		w.Name.SetManagers(cfg.App, managerIDs, cfg.NameServiceTTL)
		net.Attach(NameID, w.Name)
	}

	for i := 0; i < cfg.Hosts; i++ {
		id := HostID(i)
		var env *Env
		if cfg.HostClockRates != nil && i < len(cfg.HostClockRates) && cfg.HostClockRates[i] > 0 {
			env = NewDriftingEnv(id, net, cfg.HostClockRates[i])
		} else {
			env = NewEnv(id, net)
		}
		host := core.NewHost(id, env, nodeTracer(id, env.Now), nil)
		if flightOn && cfg.HostClockRates != nil && i < len(cfg.HostClockRates) &&
			cfg.HostClockRates[i] > 0 && cfg.HostClockRates[i] != 1 {
			// A drifting clock is itself an injection worth seeing on the
			// timeline; record it once at build.
			w.Flights[id].Record(flight.Record{
				Kind: flight.KindNet, Type: "clock-rate",
				Note: fmt.Sprintf("rate=%g", cfg.HostClockRates[i]),
			})
		}
		hCfg := core.HostAppConfig{Policy: cfg.Policy}
		if cfg.UseNameService {
			hCfg.NameService = NameID
		} else {
			hCfg.Managers = managerIDs
		}
		if cfg.Application != nil {
			hCfg.App = cfg.Application
		} else {
			idx := i
			hCfg.App = core.ApplicationFunc(func(_ wire.UserID, payload []byte) []byte {
				w.AppCalls[idx]++
				return append([]byte("ok:"), payload...)
			})
		}
		if err := host.RegisterApp(cfg.App, hCfg); err != nil {
			return nil, fmt.Errorf("host %d: %w", i, err)
		}
		if cfg.Telemetry != nil {
			core.InstrumentHost(cfg.Telemetry, cfg.Spans, host)
		}
		if rec := newAudit(id, env.Now); rec != nil {
			host.SetAudit(rec)
		}
		net.Attach(id, host)
		w.Hosts = append(w.Hosts, host)
	}
	return w, nil
}

// registerNetCounters exposes the simulated network's delivery counters as
// func-backed counter families, mirroring the live transport taxonomy
// (wanac_transport_* in netcore) at the simnet layer. Like Net.Stats, the
// closures must only run while the scheduler is idle.
func registerNetCounters(reg *telemetry.Registry, net *simnet.Network) {
	for _, c := range []struct {
		name, help string
		get        func(simnet.Counters) uint64
	}{
		{"wanac_simnet_sent_total", "Messages submitted to the simulated network.",
			func(st simnet.Counters) uint64 { return st.Sent }},
		{"wanac_simnet_delivered_total", "Messages delivered to a live destination.",
			func(st simnet.Counters) uint64 { return st.Delivered }},
		{"wanac_simnet_dropped_total", "Messages lost, cut, or sent to a crashed/absent node.",
			func(st simnet.Counters) uint64 { return st.Dropped }},
		{"wanac_simnet_duplicated_total", "Messages duplicated by the simulated network.",
			func(st simnet.Counters) uint64 { return st.Duplicated }},
	} {
		get := c.get
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(get(net.Stats())) })
	}
}

// RunFor advances the world by d of simulated time.
func (w *World) RunFor(d time.Duration) { w.Sched.RunFor(d) }

// ResetTrial returns the world to its post-Build logical state without
// rebuilding it: all pending events (in-flight deliveries, armed timers) are
// discarded, links healed, network counters and traces zeroed, hosts reset
// (cold cache, no in-flight checks), and managers reset to their seeded
// ACLs. The virtual clock is NOT rewound — it only moves forward — which is
// sound because the protocol depends only on relative durations; a trial on
// a reused world is outcome-identical to one on a fresh Build (the
// experiment tests assert exactly this). Crashed/detached nodes are the one
// thing not restored; trial functions that crash nodes must Recover them.
func (w *World) ResetTrial() {
	w.Sched.DiscardPending()
	w.Net.Heal()
	w.Net.ResetStats()
	w.Net.ResetCapacities()
	if w.Tracer != nil {
		w.Tracer.Reset()
	}
	for _, h := range w.Hosts {
		h.Reset()
	}
	for _, m := range w.Managers {
		m.ResetVolatile()
		m.Seed(w.Cfg.App, w.Cfg.Admin, wire.RightManage)
		for _, u := range w.Cfg.Users {
			m.Seed(w.Cfg.App, u, wire.RightUse)
		}
	}
	for i := range w.AppCalls {
		w.AppCalls[i] = 0
	}
}

// CheckSync runs an access check on host i and steps the simulation until
// the decision lands or the deadline of simulated time passes. It reports
// ok=false if the deadline expired first.
func (w *World) CheckSync(host int, user wire.UserID, right wire.Right, deadline time.Duration) (core.Decision, bool) {
	var (
		decision core.Decision
		done     bool
	)
	w.Hosts[host].Check(w.Cfg.App, user, right, func(d core.Decision) {
		decision = d
		done = true
	})
	w.stepUntil(&done, deadline)
	return decision, done
}

// SubmitSync issues an AdminOp on manager i and steps until the quorum (or
// failure) reply lands or the deadline passes.
func (w *World) SubmitSync(mgr int, op wire.AdminOp, deadline time.Duration) (wire.AdminReply, bool) {
	var (
		reply wire.AdminReply
		done  bool
	)
	if op.Issuer == "" {
		op.Issuer = w.Cfg.Admin
	}
	w.Managers[mgr].Submit(op, func(r wire.AdminReply) {
		reply = r
		done = true
	})
	w.stepUntil(&done, deadline)
	return reply, done
}

// Grant adds the use right for user via manager mgr and waits for quorum.
func (w *World) Grant(mgr int, user wire.UserID, deadline time.Duration) (wire.AdminReply, bool) {
	return w.SubmitSync(mgr, wire.AdminOp{
		Op: wire.OpAdd, App: w.Cfg.App, User: user, Right: wire.RightUse,
	}, deadline)
}

// Revoke removes the use right for user via manager mgr.
func (w *World) Revoke(mgr int, user wire.UserID, deadline time.Duration) (wire.AdminReply, bool) {
	return w.SubmitSync(mgr, wire.AdminOp{
		Op: wire.OpRevoke, App: w.Cfg.App, User: user, Right: wire.RightUse,
	}, deadline)
}

// InvokeSync delivers a user Invoke to host i from a synthetic user-agent
// node and steps until the reply arrives or the deadline passes.
func (w *World) InvokeSync(host int, user wire.UserID, payload []byte, deadline time.Duration) (wire.InvokeReply, bool) {
	agent := wire.NodeID("agent-" + string(user))
	var (
		reply wire.InvokeReply
		done  bool
	)
	w.Net.Attach(agent, simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if r, ok := msg.(wire.InvokeReply); ok {
			reply = r
			done = true
		}
	}))
	w.Net.Send(agent, HostID(host), wire.Invoke{App: w.Cfg.App, User: user, Payload: payload})
	w.stepUntil(&done, deadline)
	return reply, done
}

// stepUntil steps the scheduler until *done or the simulated deadline.
func (w *World) stepUntil(done *bool, deadline time.Duration) {
	limit := w.Sched.Now().Add(deadline)
	for !*done {
		if w.Sched.Pending() == 0 {
			return
		}
		if w.Sched.Now().After(limit) {
			return
		}
		w.Sched.Step()
	}
}

// UpdateQuorumTimes returns, per update sequence, the virtual time at which
// the issuing manager observed update-quorum acknowledgments — the instant
// the paper's Te guarantee starts (§3.3). Derived from the trace, so it is
// an export hook for invariant oracles rather than part of the protocol.
func (w *World) UpdateQuorumTimes() map[wire.UpdateSeq]time.Time {
	out := make(map[wire.UpdateSeq]time.Time)
	if w.Tracer == nil { // NoTrace world: no events to reconstruct from
		return out
	}
	for _, e := range w.Tracer.Filter(trace.EventUpdateQuorum) {
		if _, seen := out[e.Seq]; !seen {
			out[e.Seq] = e.Time
		}
	}
	return out
}

// CacheObservation purges host i's expired cache entries and reports what
// remains: the number purged, the entries retained, and any retained entry
// already past its limit on the host's local clock (which must be none —
// the harness's cache-hygiene oracle flags violations).
func (w *World) CacheObservation(host int) (purged int, retained []acl.Entry, expired []acl.Entry) {
	h := w.Hosts[host]
	purged = h.PurgeExpired()
	now := h.LocalNow()
	retained = h.CacheSnapshot()
	for _, e := range retained {
		if e.Expired(now) {
			expired = append(expired, e)
		}
	}
	return purged, retained, expired
}

// PartitionHostFromManagers cuts the links between host i and the given
// managers (both directions).
func (w *World) PartitionHostFromManagers(host int, managers ...int) {
	for _, m := range managers {
		w.Net.SetLink(HostID(host), ManagerID(m), false)
	}
}

// PartitionManagerPair cuts the link between two managers.
func (w *World) PartitionManagerPair(a, b int) {
	w.Net.SetLink(ManagerID(a), ManagerID(b), false)
}

// Heal restores all links.
func (w *World) Heal() { w.Net.Heal() }

// FlightDump merges a snapshot of every node's flight ring (hosts,
// managers, and the "net" pseudo-node) into one dump, ready for
// flight.BuildTimeline or cmd/acflight. Nil when flight recording is off.
//
// A cache hit leaves no flight record (flight.Tee): its record is the audit
// record. So that a failing run's timeline still shows every allow — a
// stale one above all — each host's retained cache_hit audit records are
// folded in as one cache-hit record each, on the host's clock, numbered on
// from the ring's last Seq.
func (w *World) FlightDump() *flight.Dump {
	if w.Flights == nil {
		return nil
	}
	dumps := make([]*flight.Dump, 0, len(w.Flights))
	for id, rec := range w.Flights {
		d := rec.Dump()
		if aud := w.Audits[id]; aud != nil {
			seq := d.Header.Dropped + uint64(len(d.Records))
			for a := range aud.All() {
				if a.Reason != audit.ReasonCacheHit {
					continue
				}
				d.Records = append(d.Records, flight.Record{
					Seq: seq, T: a.T, Node: a.Node, Kind: flight.KindProtocol,
					Type: trace.EventCacheHit.String(), Trace: a.Trace, App: a.App, User: a.User,
				})
				seq++
			}
		}
		dumps = append(dumps, d)
	}
	return flight.Merge(dumps...)
}

// AuditRings returns every node's audit recorder, ordered by node id — the
// shape the harness audit oracle consumes: it reads each ring where it lies
// (audit.Recorder.All), and drop accounting and ring order are per node. Nil
// when audit recording is off.
func (w *World) AuditRings() []*audit.Recorder {
	if w.Audits == nil {
		return nil
	}
	rings := make([]*audit.Recorder, 0, len(w.Audits))
	for _, rec := range w.Audits {
		rings = append(rings, rec)
	}
	sort.Slice(rings, func(i, j int) bool { return rings[i].Node() < rings[j].Node() })
	return rings
}
