// Command acnode runs a protocol node over real sockets: a manager holding
// authoritative ACLs or an application host enforcing access control in
// front of a demo application.
//
// A three-manager deployment with one host on localhost:
//
//	acnode -id m0 -listen 127.0.0.1:7000 -role manager -app stocks \
//	       -peers m0=127.0.0.1:7000,m1=127.0.0.1:7001,m2=127.0.0.1:7002 \
//	       -c 2 -te 60s -manage root -use alice
//	acnode -id m1 -listen 127.0.0.1:7001 ... (same flags, own id)
//	acnode -id m2 -listen 127.0.0.1:7002 ...
//	acnode -id h0 -listen 127.0.0.1:7100 -role host -app stocks \
//	       -peers m0=127.0.0.1:7000,m1=127.0.0.1:7001,m2=127.0.0.1:7002 \
//	       -c 2 -te 60s -debug.addr 127.0.0.1:7180
//
// Then drive it with acctl (grant/revoke/check/invoke). With -debug.addr
// set, the node serves an operational endpoint:
//
//	/debug/vars   expvar JSON including wanac.transport / wanac.host /
//	              wanac.manager counter snapshots
//	/debug/pprof  the standard pprof profiles
//	/debug/check  (hosts) run an access check: ?app=stocks&user=alice&right=use
//	/debug/flight the node's flight recording as versioned JSONL (feed the
//	              dumps from several nodes to acflight for a merged timeline)
//	/debug/audit  the node's audit ring as versioned JSONL: one structured
//	              record per access decision (hosts) or query verdict
//	              (managers), carrying the evidence behind the outcome —
//	              feed dumps to acaudit (or acctl explain) for causal
//	              "why was this allowed" explanations
//	/metrics      Prometheus text exposition: check latency histograms by
//	              outcome, quorum/freeze gauges, transport health
//	/health       readiness probe: 200 when the transport reaches a peer
//	              and (managers) no app is syncing and admission control
//	              is not shedding most queries, else 503 with reasons
//
// Every node keeps an always-on flight recorder: a bounded in-memory ring
// of protocol events and transport health transitions, dumped on demand
// (/debug/flight, acctl flight) or automatically when the node panics.
// An always-on audit ring rides alongside it (sized with -audit.ring);
// with -audit.jsonl set, every audit record is additionally streamed to
// the given file as it is accepted, surviving the bounded ring.
// Logging is structured (log/slog) and tunable with -log.level and
// -log.format; protocol state changes log at info, the events of
// individual checks at debug.
//
// With -telemetry.jsonl set, the node streams check-round spans (one JSON
// object per line) to the given file; spans from a host and its managers
// share a trace ID, so merging the files reconstructs each check's full
// lifecycle (see internal/telemetry).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wanac"
	"wanac/internal/audit"
	"wanac/internal/auth"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/netcore"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

func main() {
	var cfg nodeConfig
	flag.StringVar(&cfg.id, "id", "", "node id (required)")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "listen address")
	flag.StringVar(&cfg.role, "role", "host", "manager | host")
	flag.StringVar(&cfg.app, "app", "app", "application id")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated id=addr manager list (required)")
	flag.IntVar(&cfg.c, "c", 1, "check quorum C")
	flag.DurationVar(&cfg.te, "te", time.Minute, "revocation bound Te")
	flag.DurationVar(&cfg.ti, "ti", 0, "freeze inaccessibility period (0 = quorum strategy)")
	flag.StringVar(&cfg.manage, "manage", "", "comma-separated users seeded with the manage right (managers)")
	flag.StringVar(&cfg.use, "use", "", "comma-separated users seeded with the use right (managers)")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Second, "host query timeout")
	flag.IntVar(&cfg.r, "r", 3, "host max attempts R")
	flag.BoolVar(&cfg.defaultAllow, "default-allow", false, "host: allow by default after R failed attempts (Figure 4)")
	flag.StringVar(&cfg.stateFile, "state", "", "manager: state snapshot file (loaded at boot, saved on shutdown)")
	flag.StringVar(&cfg.trans, "transport", "tcp", "tcp | udp (udp matches the paper's unreliable network most literally)")
	flag.StringVar(&cfg.keyringPath, "keyring", "", "keyring.json from ackeygen: require sealed, signed user traffic")
	flag.StringVar(&cfg.debugAddr, "debug.addr", "", "serve expvar+pprof+/metrics (and /debug/check on hosts) on this address")
	flag.DurationVar(&cfg.statsEvery, "stats", 0, "log transport stats at this interval (0 = off)")
	flag.StringVar(&cfg.spanPath, "telemetry.jsonl", "", "stream check-round spans to this JSONL file")
	flag.IntVar(&cfg.flightRing, "flight.ring", defaultFlightRing, "flight recorder ring capacity in records (168 B each, allocated as records arrive, not up front); protocol history only: a cached check writes none (its record is the audit record), a cold one a few")
	flag.StringVar(&cfg.flightDump, "flight.dump", "", "write the flight recording here on panic (default: acnode-flight-<id>.jsonl in the temp dir)")
	flag.IntVar(&cfg.auditRing, "audit.ring", defaultAuditRing, "audit ring capacity: decision-provenance records kept per node (272 B each, allocated as records arrive, not up front)")
	flag.StringVar(&cfg.auditPath, "audit.jsonl", "", "stream every audit record to this JSONL file (in addition to the bounded ring)")
	flag.StringVar(&cfg.logLevel, "log.level", "info", "log level: debug | info | warn | error")
	flag.StringVar(&cfg.logFormat, "log.format", "text", "log format: text | json")
	flag.Parse()
	if err := setupLogging(cfg.logLevel, cfg.logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "acnode:", err)
		os.Exit(1)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "acnode:", err)
		os.Exit(1)
	}
}

// defaultFlightRing holds the last 4096 protocol events at under a MB. A
// cached check adds none, so however many hits a host serves the ring keeps
// its last ~1000 cold checks, revocations and transport changes; on a
// manager applying a few updates a minute it is hours.
const defaultFlightRing = 4096

// defaultAuditRing holds the provenance of the last 4096 access decisions
// (one record per check) at a comparable cost.
const defaultAuditRing = 4096

type nodeConfig struct {
	id, listen, role, app, peers  string
	c, r                          int
	te, ti, timeout, statsEvery   time.Duration
	manage, use                   string
	defaultAllow                  bool
	stateFile, trans, keyringPath string
	debugAddr                     string
	spanPath                      string
	flightRing                    int
	flightDump                    string
	auditRing                     int
	auditPath                     string
	logLevel, logFormat           string
}

// setupLogging installs the process-wide slog handler per the -log.* flags.
func setupLogging(level, format string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("log.level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("log.format: unknown format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// runtime is a started node: the transport, the protocol role on top of
// it, and the operational surface (registry, debug server, span stream).
// Tests boot nodes through startNode and drive them directly; main wires
// the same thing to the signal handler.
type runtime struct {
	node   wanac.Transport
	host   *core.Host
	mgr    *core.Manager
	reg    *telemetry.Registry
	flight *flight.Recorder
	audit  *audit.Recorder

	saveState func()
	stopDebug func()
	spanFile  *os.File
	spanBuf   *bufio.Writer
	spanW     *telemetry.SpanWriter
	auditFile *os.File
	auditBuf  *bufio.Writer
	auditW    *audit.Writer
}

// Close releases everything startNode acquired: debug server, span
// stream (flushed), transport. State saving is the caller's decision
// (main saves on clean shutdown only).
func (rt *runtime) Close() {
	if rt.stopDebug != nil {
		rt.stopDebug()
	}
	if rt.spanFile != nil {
		rt.spanW.Close() // quiesce emitters before the buffer flush below
		if rt.spanW.Errors() > 0 {
			slog.Error("telemetry: spans failed to encode or were dropped", "count", rt.spanW.Errors())
		}
		if err := rt.spanBuf.Flush(); err != nil {
			slog.Error("telemetry: flush spans failed", "err", err)
		}
		rt.spanFile.Close()
	}
	if rt.auditFile != nil {
		// Detach the sink before flushing so late decisions can't race the
		// buffer; the ring itself keeps accepting until the node is gone.
		rt.audit.SetSink(nil)
		if rt.auditW.Errors() > 0 {
			slog.Error("audit: records failed to encode", "count", rt.auditW.Errors())
		}
		if err := rt.auditBuf.Flush(); err != nil {
			slog.Error("audit: flush records failed", "err", err)
		}
		rt.auditFile.Close()
	}
	rt.node.Close()
}

func run(cfg nodeConfig) error {
	rt, err := startNode(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	// A crashing node writes its flight recording before dying, so the
	// last moments of protocol history survive the process.
	defer dumpFlightOnPanic(rt.flight, cfg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if rt.saveState != nil {
		rt.saveState()
	}
	slog.Info("shutting down", "node", cfg.id)
	return nil
}

// dumpFlightOnPanic writes the flight ring to disk when the calling
// goroutine is unwinding from a panic, then re-panics so the crash still
// reports normally.
func dumpFlightOnPanic(rec *flight.Recorder, cfg nodeConfig) {
	p := recover()
	if p == nil {
		return
	}
	path := cfg.flightDump
	if path == "" {
		path = filepath.Join(os.TempDir(), "acnode-flight-"+cfg.id+".jsonl")
	}
	if f, err := os.Create(path); err == nil {
		if err := rec.WriteDump(f); err != nil {
			slog.Error("panic flight dump failed", "err", err)
		} else {
			slog.Error("panic: flight recording saved", "path", path)
		}
		f.Close()
	} else {
		slog.Error("panic flight dump failed", "err", err)
	}
	panic(p)
}

func startNode(cfg nodeConfig) (*runtime, error) {
	if cfg.id == "" || cfg.peers == "" {
		return nil, fmt.Errorf("-id and -peers are required")
	}
	var ring *auth.Keyring
	if cfg.keyringPath != "" {
		f, err := os.Open(cfg.keyringPath)
		if err != nil {
			return nil, err
		}
		ring, err = auth.LoadKeyring(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		slog.Info("loaded keyring: unauthenticated user traffic will be rejected",
			"node", cfg.id, "users", ring.Len())
	}
	peerAddrs, order, err := parsePeers(cfg.peers)
	if err != nil {
		return nil, err
	}

	// The flight recorder runs unconditionally: a bounded ring of protocol
	// and transport history whose cost does not depend on uptime, dumped
	// via /debug/flight, acctl flight, or on panic.
	if cfg.flightRing <= 0 {
		cfg.flightRing = defaultFlightRing
	}
	rec := flight.NewRecorder(cfg.id, cfg.flightRing, nil)
	// The audit ring is equally always-on: every access decision (hosts)
	// and query verdict (managers) leaves a provenance record, served via
	// /debug/audit and joined by acaudit/acctl explain.
	if cfg.auditRing <= 0 {
		cfg.auditRing = defaultAuditRing
	}
	auditRec := audit.NewRecorder(cfg.id, cfg.auditRing, nil)

	var opts []wanac.Option
	if cfg.statsEvery > 0 {
		opts = append(opts, wanac.WithStatsInterval(cfg.statsEvery))
	}
	opts = append(opts, wanac.WithPeerStateSink(func(peer wire.NodeID, state string) {
		rec.Record(flight.Record{Kind: flight.KindTransport, Type: state, Peer: string(peer)})
	}))
	node, err := wanac.Listen(cfg.trans, wire.NodeID(cfg.id), cfg.listen, opts...)
	if err != nil {
		return nil, err
	}
	rt := &runtime{node: node, reg: telemetry.NewRegistry(), flight: rec, audit: auditRec}
	telemetry.RegisterBuildInfo(rt.reg)
	fail := func(err error) (*runtime, error) {
		rt.Close()
		return nil, err
	}
	for pid, addr := range peerAddrs {
		if pid == wire.NodeID(cfg.id) {
			continue
		}
		if err := node.AddPeer(pid, addr); err != nil {
			return fail(err)
		}
	}
	slog.Info("listening", "node", cfg.id, "addr", node.Addr(),
		"role", cfg.role, "app", cfg.app, "transport", cfg.trans)

	// Telemetry: the transport's counters and peer health re-exported on
	// the registry, protocol events counted by type and teed into the
	// flight ring, and — when requested — check-round spans streamed as
	// JSONL.
	netcore.RegisterTransport(rt.reg, node.Stats)
	tracer := telemetry.InstrumentTracer(rt.reg, flight.Tee(rec, logTracer{}))
	var spans telemetry.SpanRecorder
	if cfg.spanPath != "" {
		f, err := os.Create(cfg.spanPath)
		if err != nil {
			return fail(fmt.Errorf("telemetry.jsonl: %w", err))
		}
		rt.spanFile = f
		rt.spanBuf = bufio.NewWriter(f)
		rt.spanW = telemetry.NewSpanWriter(rt.spanBuf)
		spans = rt.spanW
		slog.Info("streaming check spans", "node", cfg.id, "path", cfg.spanPath)
	}
	if cfg.auditPath != "" {
		f, err := os.Create(cfg.auditPath)
		if err != nil {
			return fail(fmt.Errorf("audit.jsonl: %w", err))
		}
		rt.auditFile = f
		rt.auditBuf = bufio.NewWriter(f)
		rt.auditW = audit.NewWriter(rt.auditBuf)
		auditRec.SetSink(rt.auditW)
		slog.Info("streaming audit records", "node", cfg.id, "path", cfg.auditPath)
	}

	switch cfg.role {
	case "manager":
		rt.mgr = core.NewManager(wire.NodeID(cfg.id), node, tracer, ring)
		mgr := rt.mgr
		if err := mgr.AddApp(wire.AppID(cfg.app), core.ManagerAppConfig{
			Peers:       order,
			CheckQuorum: cfg.c,
			Te:          cfg.te,
			FreezeTi:    cfg.ti,
		}); err != nil {
			return fail(err)
		}
		for _, u := range splitUsers(cfg.manage) {
			mgr.Seed(wire.AppID(cfg.app), u, wire.RightManage)
		}
		for _, u := range splitUsers(cfg.use) {
			mgr.Seed(wire.AppID(cfg.app), u, wire.RightUse)
		}
		core.InstrumentManager(rt.reg, spans, mgr)
		mgr.SetAudit(auditRec)
		if cfg.stateFile != "" {
			if f, err := os.Open(cfg.stateFile); err == nil {
				loadErr := mgr.LoadState(f)
				f.Close()
				if loadErr != nil {
					return fail(loadErr)
				}
				slog.Info("restored state", "node", cfg.id, "path", cfg.stateFile)
			} else if !os.IsNotExist(err) {
				return fail(err)
			}
			rt.saveState = func() {
				f, err := os.CreateTemp(filepath.Dir(cfg.stateFile), ".acnode-state-*")
				if err != nil {
					slog.Error("save state failed", "err", err)
					return
				}
				if err := mgr.SaveState(f); err != nil {
					slog.Error("save state failed", "err", err)
					f.Close()
					os.Remove(f.Name())
					return
				}
				f.Close()
				if err := os.Rename(f.Name(), cfg.stateFile); err != nil {
					slog.Error("save state failed", "err", err)
					os.Remove(f.Name())
					return
				}
				slog.Info("saved state", "node", cfg.id, "path", cfg.stateFile)
			}
		}
		node.SetHandler(mgr)
	case "host":
		rt.host = core.NewHost(wire.NodeID(cfg.id), node, tracer, ring)
		if err := rt.host.RegisterApp(wire.AppID(cfg.app), core.HostAppConfig{
			Managers: order,
			Policy: core.Policy{
				CheckQuorum:  cfg.c,
				Te:           cfg.te,
				QueryTimeout: cfg.timeout,
				MaxAttempts:  cfg.r,
				DefaultAllow: cfg.defaultAllow,
			},
			App: core.ApplicationFunc(func(user wire.UserID, payload []byte) []byte {
				return []byte(fmt.Sprintf("hello %s, you sent %q at %s",
					user, payload, time.Now().Format(time.RFC3339)))
			}),
		}); err != nil {
			return fail(err)
		}
		core.InstrumentHost(rt.reg, spans, rt.host)
		rt.host.SetAudit(auditRec)
		node.SetHandler(rt.host)
	default:
		return fail(fmt.Errorf("unknown role %q", cfg.role))
	}

	if cfg.debugAddr != "" {
		stop, err := startDebugServer(cfg.debugAddr, rt, wire.AppID(cfg.app))
		if err != nil {
			return fail(err)
		}
		rt.stopDebug = stop
	}
	return rt, nil
}

// startDebugServer serves the operational endpoint: expvar (with the
// transport and protocol counters published), the pprof profiles, the
// Prometheus /metrics exposition, and — on hosts — a live /debug/check.
// The /metrics families and the /debug/vars snapshots read the same
// underlying counters (the transport stats function is shared, and the
// protocol registry counters are incremented at the same call sites as
// the stats fields), so the two views agree by construction.
func startDebugServer(addr string, rt *runtime, app wire.AppID) (func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen: %w", err)
	}
	publishOnce("wanac.transport", expvar.Func(func() any { return rt.node.Stats() }))
	if rt.host != nil {
		host := rt.host
		publishOnce("wanac.host", expvar.Func(func() any { return host.Stats() }))
	}
	if rt.mgr != nil {
		mgr := rt.mgr
		publishOnce("wanac.manager", expvar.Func(func() any { return mgr.Stats() }))
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := rt.reg.WritePrometheus(w); err != nil {
			slog.Error("metrics write failed", "err", err)
		}
	})
	mux.Handle("/health", &healthHandler{rt: rt})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := rt.flight.WriteDump(w); err != nil {
			slog.Error("flight dump write failed", "err", err)
		}
	})
	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := rt.audit.WriteDump(w); err != nil {
			slog.Error("audit dump write failed", "err", err)
		}
	})
	if rt.host != nil {
		host := rt.host
		mux.HandleFunc("/debug/check", func(w http.ResponseWriter, r *http.Request) {
			serveCheck(w, r, host, app)
		})
	}

	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			slog.Error("debug server failed", "err", err)
		}
	}()
	slog.Info("debug endpoint up", "url", "http://"+l.Addr().String()+"/debug/vars")
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// publishOnce publishes an expvar unless the name is already taken —
// expvar is process-global and Publish panics on duplicates, which
// matters when tests boot several nodes in one process. In that case the
// first node wins; production runs one node per process.
func publishOnce(name string, v expvar.Var) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, v)
	}
}

// serveCheck runs a blocking access check with the request's context: the
// HTTP client's deadline (or disconnect) cancels the wait, while the
// protocol round continues in the background.
func serveCheck(w http.ResponseWriter, r *http.Request, host *core.Host, defaultApp wire.AppID) {
	q := r.URL.Query()
	app := wire.AppID(q.Get("app"))
	if app == "" {
		app = defaultApp
	}
	user := wire.UserID(q.Get("user"))
	if user == "" {
		http.Error(w, "missing user parameter", http.StatusBadRequest)
		return
	}
	right := wire.RightUse
	switch q.Get("right") {
	case "", "use":
	case "manage":
		right = wire.RightManage
	default:
		http.Error(w, "right must be use or manage", http.StatusBadRequest)
		return
	}
	d, err := host.CheckContext(r.Context(), app, user, right)
	if err != nil {
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		App  wire.AppID  `json:"app"`
		User wire.UserID `json:"user"`
		core.Decision
	}{app, user, d})
}

func parsePeers(s string) (map[wire.NodeID]string, []wire.NodeID, error) {
	addrs := make(map[wire.NodeID]string)
	var order []wire.NodeID
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, nil, fmt.Errorf("bad peer entry %q (want id=addr)", part)
		}
		id := wire.NodeID(kv[0])
		if _, dup := addrs[id]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %q", kv[0])
		}
		addrs[id] = kv[1]
		order = append(order, id)
	}
	return addrs, order, nil
}

func splitUsers(s string) []wire.UserID {
	if s == "" {
		return nil
	}
	var out []wire.UserID
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, wire.UserID(u))
		}
	}
	return out
}

// logTracer prints protocol events to the process log as structured
// records, so a node's event stream is filterable and machine-joinable
// with the transport's stats lines. State changes log at Info; the events
// of a single check — a cached one emits one — log at Debug, and an event
// whose level is disabled costs one Enabled call and no allocation.
type logTracer struct{}

func (logTracer) Emit(e trace.Event) {
	level := slog.LevelDebug
	switch e.Type {
	case trace.EventUpdateIssued, trace.EventUpdateApplied, trace.EventUpdateQuorum,
		trace.EventRevokeApplied, trace.EventFrozen, trace.EventUnfrozen,
		trace.EventSynced, trace.EventTeAdapted:
		level = slog.LevelInfo
	}
	ctx := context.Background()
	logger := slog.Default()
	if !logger.Enabled(ctx, level) {
		return
	}
	attrs := make([]any, 0, 12)
	attrs = append(attrs, "node", string(e.Node), "type", e.Type.String())
	if e.App != "" {
		attrs = append(attrs, "app", string(e.App))
	}
	if e.User != "" {
		attrs = append(attrs, "user", string(e.User))
	}
	if e.Trace != 0 {
		attrs = append(attrs, "trace", fmt.Sprintf("%016x", e.Trace))
	}
	if e.Note != "" {
		attrs = append(attrs, "note", e.Note)
	}
	logger.Log(ctx, level, "event", attrs...)
}
