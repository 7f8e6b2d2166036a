// Package fleet aggregates a deployment's health: it scrapes each
// node's /metrics exposition, merges the families fleet-wide (counters
// and histogram buckets sum; gauges fold by per-family policy), and
// evaluates SLOs over the rollup with multi-window burn-rate alerting and
// error-budget accounting (internal/slo). Check latency and check
// availability come from slo.CheckSpecs, the one definition the scenario
// suite also evaluates, so the two cannot disagree; revocation
// propagation against the configured Te and per-lane queue drops are the
// fleet's own.
//
// The Monitor re-exports the fleet rollup through telemetry's one
// exposition writer, (*Metrics).Write, plus its own meta-metrics and
// alert states on /metrics, answers /health with ready/degraded, keeps
// an append-only JSONL stream of health snapshots, and renders a
// terminal dashboard. cmd/acmon is the thin CLI on top.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"wanac/internal/slo"
	"wanac/internal/telemetry"
)

// A Target is one node to scrape: a name for display and label use, and
// the base address of its debug endpoint (host:port, no scheme).
type Target struct {
	Name string
	Addr string
}

// Config parameterizes a Monitor.
type Config struct {
	// Targets are the nodes to scrape. Required, at least one.
	Targets []Target
	// Te is the deployment's revocation bound, the reference for the
	// revocation-propagation SLO. Zero disables that SLO.
	Te time.Duration
	// QueryTimeout is the hosts' query timeout, the threshold for the
	// check-latency SLO. Zero means core.DefaultQueryTimeout.
	QueryTimeout time.Duration
	// Every is the scrape interval for Run. Default 5s.
	Every time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
	// Client performs the scrapes; nil means a client with a per-scrape
	// timeout of Every (or 5s).
	Client *http.Client
	// JSONL, if non-nil, receives one JSON health snapshot per scrape.
	JSONL io.Writer
}

// Monitor is a fleet aggregator. Create with New, drive with ScrapeOnce
// or Run, serve with Handler.
type Monitor struct {
	cfg    Config
	now    func() time.Time
	client *http.Client
	engine *slo.Engine
	reg    *telemetry.Registry

	mu       sync.Mutex
	last     *telemetry.Metrics // latest fleet rollup (nil before first scrape)
	lastAt   time.Time          // when the latest scrape finished
	up       int                // targets scraped successfully in the latest round
	scrapes  uint64
	perr     map[string]string // target name → latest scrape error ("" = ok)
	jsonlErr error
}

// New builds a Monitor. It panics on an invalid config (no targets),
// matching the registry's fail-fast posture for programming errors.
func New(cfg Config) *Monitor {
	if len(cfg.Targets) == 0 {
		panic("fleet: config needs at least one target")
	}
	if cfg.Every <= 0 {
		cfg.Every = 5 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Every}
	}
	m := &Monitor{
		cfg:    cfg,
		now:    now,
		client: client,
		reg:    telemetry.NewRegistry(),
		perr:   make(map[string]string, len(cfg.Targets)),
	}
	m.engine = slo.NewEngine(now, m.specs()...)
	m.register()
	m.engine.Sample() // baseline: budget accounting starts at attach time
	return m
}

// latest returns the current rollup under the lock (may be nil).
func (m *Monitor) latest() *telemetry.Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// source is the SLO indicators' view of the latest rollup: nil before
// the first scrape.
func (m *Monitor) source() slo.Source {
	if mg := m.latest(); mg != nil {
		return mg
	}
	return nil
}

// specs builds the fleet SLO set: the shared check SLOs (slo.CheckSpecs)
// plus revocation propagation and per-lane drops. Indicators read the
// latest merged rollup, so cumulative reads survive node restarts only as
// well as the underlying counters do — the slo engine rebaselines on
// regression.
func (m *Monitor) specs() []slo.Spec {
	specs := slo.CheckSpecs(slo.Spec{}, m.cfg.QueryTimeout, m.source)

	if m.cfg.Te > 0 {
		specs = append(specs, slo.Spec{
			Name: "revocation-propagation",
			// Te is the paper's hard bound; spending more than 1% of
			// revocations past it means the deployment no longer delivers
			// the guarantee operators planned policy around.
			Objective: 0.99,
			Indicator: slo.Latency(m.cfg.Te.Seconds(),
				slo.HistogramOf(m.source, "wanac_manager_revocation_propagation_seconds")),
		})
	}

	for _, lane := range []string{"bulk", "high"} {
		lane := lane
		specs = append(specs, slo.Spec{
			Name:      "lane-drops-" + lane,
			Objective: 0.95,
			Indicator: slo.Ratio(func() (float64, float64) {
				mg := m.latest()
				if mg == nil {
					return 0, 0
				}
				admitted := mg.Sum("wanac_transport_lane_enqueued_total", "lane", lane)
				dropped := mg.Sum("wanac_transport_lane_drops_total", "lane", lane)
				return admitted, admitted + dropped
			}),
		})
	}
	return specs
}

// register populates the monitor's own registry: build info, the SLO
// families, and the scrape meta-metrics.
func (m *Monitor) register() {
	telemetry.RegisterBuildInfo(m.reg)
	m.engine.Register(m.reg)
	m.reg.GaugeFunc("wanac_fleet_targets", "Configured scrape targets.",
		func() float64 { return float64(len(m.cfg.Targets)) })
	m.reg.GaugeFunc("wanac_fleet_targets_up", "Targets scraped successfully in the latest round.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.up)
		})
	scrapes := m.reg.CounterVec("wanac_fleet_scrapes_total",
		"Scrape attempts by target and outcome.", "target", "outcome")
	for _, t := range m.cfg.Targets {
		scrapes.With(t.Name, "ok")
		scrapes.With(t.Name, "error")
	}
}

// ScrapeOnce scrapes every target, folds the expositions into a fresh
// rollup, samples the SLO engine, and appends a JSONL snapshot. A
// target that fails to scrape is recorded (targets_up, scrape errors)
// but does not abort the round; the returned error is non-nil only when
// no target could be scraped at all.
func (m *Monitor) ScrapeOnce(ctx context.Context) error {
	roll, at := newRollup()
	up := 0
	errs := make(map[string]string, len(m.cfg.Targets))
	scrapes := m.reg.CounterVec("wanac_fleet_scrapes_total",
		"Scrape attempts by target and outcome.", "target", "outcome")
	for _, t := range m.cfg.Targets {
		parsed, err := m.scrapeTarget(ctx, t)
		if err == nil {
			err = fold(roll, at, parsed)
		}
		if err != nil {
			errs[t.Name] = err.Error()
			scrapes.With(t.Name, "error").Inc()
			continue
		}
		errs[t.Name] = ""
		scrapes.With(t.Name, "ok").Inc()
		up++
	}
	sortRollup(roll)

	m.mu.Lock()
	m.scrapes++
	m.up = up
	m.perr = errs
	if up > 0 {
		m.last = roll
	}
	m.lastAt = m.now()
	m.mu.Unlock()

	statuses := m.engine.Sample()
	m.writeJSONL(statuses)
	if up == 0 {
		return fmt.Errorf("fleet: all %d targets failed to scrape", len(m.cfg.Targets))
	}
	return nil
}

// scrapeTarget fetches and strictly parses one node's exposition.
func (m *Monitor) scrapeTarget(ctx context.Context, t Target) (*telemetry.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+t.Addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %s", t.Name, resp.Status)
	}
	parsed, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	return parsed, nil
}

// Run scrapes on the configured interval until ctx is done, calling after
// once each scrape is in. The first scrape happens immediately.
func (m *Monitor) Run(ctx context.Context, after func()) error {
	tick := time.NewTicker(m.cfg.Every)
	defer tick.Stop()
	for {
		m.ScrapeOnce(ctx) // partial rounds already surface via metrics/health
		after()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// healthSnapshot is one JSONL line: the fleet's state after a scrape.
type healthSnapshot struct {
	Time      time.Time         `json:"time"`
	Targets   int               `json:"targets"`
	TargetsUp int               `json:"targets_up"`
	Healthy   bool              `json:"healthy"`
	Errors    map[string]string `json:"scrape_errors,omitempty"`
	SLO       []slo.Status      `json:"slo"`
}

func (m *Monitor) writeJSONL(statuses []slo.Status) {
	if m.cfg.JSONL == nil {
		return
	}
	snap := healthSnapshot{Targets: len(m.cfg.Targets), SLO: statuses}
	m.mu.Lock()
	snap.Time = m.lastAt
	snap.TargetsUp = m.up
	for name, e := range m.perr {
		if e != "" {
			if snap.Errors == nil {
				snap.Errors = make(map[string]string)
			}
			snap.Errors[name] = e
		}
	}
	m.mu.Unlock()
	firing := false
	for _, st := range statuses {
		firing = firing || st.Firing
	}
	snap.Healthy = snap.TargetsUp == snap.Targets && !firing
	line, err := json.Marshal(snap)
	if err != nil {
		m.jsonlErr = err
		return
	}
	if _, err := m.cfg.JSONL.Write(append(line, '\n')); err != nil {
		m.jsonlErr = err
	}
}

// Healthy reports the fleet verdict behind /health: every target up on
// the latest round and no burn-rate alert firing. The detail map names
// the offenders.
func (m *Monitor) Healthy() (bool, map[string]string) {
	detail := make(map[string]string)
	m.mu.Lock()
	if m.scrapes == 0 {
		detail["fleet"] = "no scrape completed yet"
	}
	for name, e := range m.perr {
		if e != "" {
			detail["target:"+name] = e
		}
	}
	m.mu.Unlock()
	for _, st := range m.engine.Status() {
		if st.Firing {
			detail["slo:"+st.Name] = fmt.Sprintf("burn-rate alert firing (sli %.4f, objective %.4f)", st.SLI, st.Objective)
		}
	}
	return len(detail) == 0, detail
}

// Handler serves the monitor's HTTP surface:
//
//	/metrics  own families (build info, SLO states, scrape meta) followed
//	          by the fleet rollup; the monitor's families win collisions
//	/health   200 {"healthy":true} when all targets scraped and no alert
//	          is firing, else 503 with the offender map
//	/         the terminal dashboard as plain text
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := m.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		healthy, detail := m.Healthy()
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			Healthy bool              `json:"healthy"`
			Detail  map[string]string `json:"detail,omitempty"`
		}{healthy, detail})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, m.Dashboard())
	})
	return mux
}

// WriteMetrics renders the combined exposition: the monitor's own
// registry first, then the fleet rollup minus any family the monitor
// itself exports (own wins, so e.g. the monitor's build info is not
// summed with the nodes').
func (m *Monitor) WriteMetrics(w io.Writer) error {
	own := m.reg.Gather()
	if err := own.Write(w, nil); err != nil {
		return err
	}
	mg := m.latest()
	if mg == nil {
		return nil
	}
	return mg.Write(w, own.Types)
}

// Dashboard renders the fleet's state as a fixed-width text block: one
// header line, one line per target, one per SLO.
func (m *Monitor) Dashboard() string {
	var b strings.Builder
	m.mu.Lock()
	at, up, scrapes := m.lastAt, m.up, m.scrapes
	errs := make(map[string]string, len(m.perr))
	for k, v := range m.perr {
		errs[k] = v
	}
	m.mu.Unlock()

	healthy, _ := m.Healthy()
	verdict := "HEALTHY"
	if !healthy {
		verdict = "DEGRADED"
	}
	if scrapes == 0 {
		fmt.Fprintf(&b, "wanac fleet — no scrape yet (%d targets)\n", len(m.cfg.Targets))
		return b.String()
	}
	fmt.Fprintf(&b, "wanac fleet — %s — %d/%d targets up — scraped %s\n",
		verdict, up, len(m.cfg.Targets), at.Format(time.RFC3339))

	names := make([]string, 0, len(m.cfg.Targets))
	for _, t := range m.cfg.Targets {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	addr := make(map[string]string, len(m.cfg.Targets))
	for _, t := range m.cfg.Targets {
		addr[t.Name] = t.Addr
	}
	for _, name := range names {
		state := "up"
		if e := errs[name]; e != "" {
			state = "DOWN: " + e
		}
		fmt.Fprintf(&b, "  target %-12s %-21s %s\n", name, addr[name], state)
	}
	for _, st := range m.engine.Status() {
		alert := "ok"
		if st.Firing {
			alert = "FIRING"
		} else if st.Fired > 0 {
			alert = fmt.Sprintf("ok (fired %d)", st.Fired)
		}
		fmt.Fprintf(&b, "  slo %-24s objective %5.1f%%  sli %6.2f%%  burn %5.2f/%5.2f  budget %4.0f%%  %s\n",
			st.Name, st.Objective*100, st.SLI*100, st.FastBurn, st.SlowBurn,
			st.BudgetConsumed*100, alert)
	}
	return b.String()
}
