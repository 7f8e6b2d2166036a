package sim

import (
	"fmt"
	"sort"
	"strconv"
	"time"

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
	// Tracer receives every node's protocol events. nil means a
	// trace.Collector that keeps them all, World.Tracer; any other tracer
	// takes them instead, and World.Tracer is nil unless FlightRing is set.
	// trace.Nop{} builds nodes that build and record no events: Monte Carlo
	// trials set it — they only inspect decisions and replies, and tracing
	// is pure overhead on their hot path.
	Tracer trace.Tracer
	// Telemetry, when non-nil, instruments every node against this registry
	// with the same metric families the live acnode binary exports, plus
	// simnet delivery counters. Reading the registry (WritePrometheus) is
	// only consistent while the scheduler is idle — the same constraint as
	// Net.Stats.
	Telemetry *telemetry.Registry
	// FlightRing, when > 0, turns on World.FlightDump and is its protocol
	// window: the dump keeps each node's last FlightRing protocol records,
	// read from the trace log, and a "net" pseudo-node journal with windows
	// of that size captures topology injections on the scheduler's clock.
	// The log is World.Tracer, a Collector that records beside Tracer when
	// one is given. Ignored under trace.Nop{}.
	FlightRing int
	// AuditRing, when > 0, attaches a journal whose decisions window holds
	// that many records to every node (internal/flight): hosts record one
	// entry per decision, managers one per query verdict, each stamped by
	// the node's own clock. Independent of Tracer — decision records are
	// emitted directly, not derived from trace events. See World.Journals.
	AuditRing int
}

// World is a fully wired simulated deployment.
type World struct {
	Cfg   Config
	Sched *simnet.Scheduler
	Net   *simnet.Network
	// Tracer is the trace log: every event the nodes emitted, kept unless
	// Config.Tracer took them instead (see Config.Tracer); nil then.
	Tracer   *trace.Collector
	Managers []*core.Manager
	Hosts    []*core.Host
	Name     *nameservice.Server
	// AppCalls counts invocations that reached the wrapped application, per
	// host index (used by the component-wrapper experiment).
	AppCalls []int
	// Journals holds each node's journal, ordered by node id, when
	// Config.AuditRing is set; nil otherwise. A node's journal keeps its
	// decision records only: its protocol records are read from the trace
	// log. The harness audit oracle takes each journal's records as it
	// accepts them (flight.Recorder.SetSink).
	Journals []*flight.Recorder

	// netFlight records the network's injections when Config.FlightRing is
	// set (nil otherwise): they are not trace events.
	netFlight *flight.Recorder
	// clockRates holds each drifting host's build-time clock-rate record,
	// the host's Seq 0 in FlightDump.
	clockRates map[wire.NodeID]flight.Record
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
	var collector *trace.Collector
	tracer := cfg.Tracer
	if _, nop := tracer.(trace.Nop); tracer == nil || cfg.FlightRing > 0 && !nop {
		collector = trace.NewCollector()
		tracer = tee(tracer, collector)
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

	// Flight recording: FlightDump reads the nodes' records from the trace
	// log; the network's injection observer feeds a "net" pseudo-node ring
	// on the scheduler clock.
	if cfg.FlightRing > 0 && collector != nil {
		w.netFlight = flight.NewRecorder("net", cfg.FlightRing, sched.Now)
		w.clockRates = make(map[wire.NodeID]flight.Record)
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
			w.netFlight.Record(flight.Record{Kind: flight.KindNet, Type: ev.Type, Note: note})
		}
	}

	// Decision recording: one journal per node, stamped by the node's own
	// clock, written at the decision sites themselves (independent of the
	// trace chain above).
	newJournal := func(id wire.NodeID, now func() time.Time) *flight.Recorder {
		if cfg.AuditRing <= 0 {
			return nil
		}
		rec := flight.NewRecorder(string(id), cfg.AuditRing, now)
		w.Journals = append(w.Journals, rec)
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
		mgr := core.NewManager(managerIDs[i], env, tracer, nil)
		if err := mgr.AddApp(cfg.App, mCfg); err != nil {
			return nil, fmt.Errorf("manager %d: %w", i, err)
		}
		mgr.Seed(cfg.App, cfg.Admin, wire.RightManage)
		for _, u := range cfg.Users {
			mgr.Seed(cfg.App, u, wire.RightUse)
		}
		if rec := newJournal(managerIDs[i], env.Now); cfg.Telemetry != nil {
			core.InstrumentManager(cfg.Telemetry, rec, mgr)
		} else if rec != nil {
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
		w.Name = nameservice.New(env)
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
		host := core.NewHost(id, env, tracer, nil)
		if w.clockRates != nil && env.rate != 1 {
			// A drifting clock is itself an injection worth seeing on the
			// timeline; record it once at build.
			w.clockRates[id] = flight.Record{T: env.Now(), Node: string(id), Kind: flight.KindNet,
				Type: "clock-rate", Note: fmt.Sprintf("rate=%g", env.rate)}
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
		if rec := newJournal(id, env.Now); cfg.Telemetry != nil {
			core.InstrumentHost(cfg.Telemetry, rec, host)
		} else if rec != nil {
			host.SetAudit(rec)
		}
		net.Attach(id, host)
		w.Hosts = append(w.Hosts, host)
	}
	sort.Slice(w.Journals, func(i, j int) bool { return w.Journals[i].Node() < w.Journals[j].Node() })
	return w, nil
}

// tee returns a tracer handing each event to first, if not nil, then to
// log.
func tee(first trace.Tracer, log *trace.Collector) trace.Tracer {
	if first == nil {
		return log
	}
	return teeTracer{first, log}
}

type teeTracer struct {
	first trace.Tracer
	log   *trace.Collector
}

// Emit implements trace.Tracer.
func (t teeTracer) Emit(e trace.Event) {
	t.first.Emit(e)
	t.log.Emit(e)
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

// CacheObservation purges host i's expired cache entries and counts what
// remains: the entries retained, and those already past their limit on the
// host's local clock (which must be none — the harness's cache-hygiene
// oracle flags violations).
func (w *World) CacheObservation(host int) (retained, expired int) {
	h := w.Hosts[host]
	h.PurgeExpired()
	return h.CacheCensus()
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

// FlightDump merges every node's journal (hosts, managers, and the "net"
// pseudo-node) into one dump, ready for flight.BuildTimeline or acaudit
// -timeline. Nil when flight recording is off.
//
// A node's protocol records are read from the trace log: its events but
// cache hits, after a drifting host's clock-rate record, numbered from Seq
// 0. The dump keeps the last Config.FlightRing of them and counts the rest
// as dropped. The node journal's decisions and responses follow, numbered on
// from the node's last Seq, and its drops are counted too; a cache hit's
// record is its decision record.
func (w *World) FlightDump() *flight.Dump {
	if w.netFlight == nil {
		return nil
	}
	logs := make(map[wire.NodeID]*flight.Dump, w.Cfg.Managers+w.Cfg.Hosts)
	for i := range w.Cfg.Managers {
		logs[ManagerID(i)] = &flight.Dump{}
	}
	for i := range w.Cfg.Hosts {
		logs[HostID(i)] = &flight.Dump{}
	}
	add := func(d *flight.Dump, r flight.Record) {
		r.Seq = d.Header.Dropped + uint64(len(d.Records))
		d.Records = append(d.Records, r)
	}
	for id, r := range w.clockRates {
		add(logs[id], r)
	}
	for e := range w.Tracer.All() {
		if d := logs[e.Node]; d != nil && e.Type != trace.EventCacheHit {
			add(d, flight.EventRecord(e))
		}
	}
	dumps := []*flight.Dump{w.netFlight.Dump()}
	for id, d := range logs {
		drop := max(len(d.Records)-w.Cfg.FlightRing, 0)
		d.Header = flight.Header{Nodes: []string{string(id)}, Dropped: uint64(drop)}
		d.Records = d.Records[drop:]
		dumps = append(dumps, d)
	}
	for _, j := range w.Journals {
		d := logs[wire.NodeID(j.Node())]
		d.Header.Dropped += j.Dropped()
		for r := range j.All() {
			add(d, *r)
		}
	}
	return flight.Merge(dumps...)
}
