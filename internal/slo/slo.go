// Package slo judges a running deployment against its stated service
// objectives. It is the self-judging layer over the telemetry substrate:
// declarative SLO specs (an objective fraction over an error-budget
// window) are evaluated against sliding-window service-level indicators
// (SLIs) sampled from metric snapshots, with multi-window burn-rate
// alerting in the style of the SRE workbook.
//
// The package depends only on internal/telemetry and, for the default
// query timeout, internal/core. It is driven by an explicit clock, so the
// same engine runs identically under the simnet virtual clock (scenario
// runs) and wall time (acmon against a live fleet).
//
// Terminology:
//
//   - SLI: fraction of good events over a window, good/total in [0,1].
//   - Error budget: the tolerated bad fraction, 1-Objective, over Window.
//   - Burn rate: (1-SLI)/(1-Objective) over a window. Burn 1 means the
//     budget is being consumed exactly at the rate that exhausts it at
//     the end of the window; burn 10 exhausts it in a tenth of the window.
//   - Multi-window alert: fires only when both the fast and the slow
//     window burn above their thresholds — the fast window gives low
//     detection latency, the slow window suppresses blips; the alert
//     clears as soon as the fast window recovers.
package slo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wanac/internal/core"
	"wanac/internal/telemetry"
)

// An Indicator reads the cumulative (good, total) event counts that back
// one SLI. Reads must be monotonically non-decreasing; the engine turns
// successive reads into windowed rates.
type Indicator struct {
	read func() (good, total float64)
}

// Ratio builds an indicator from a cumulative (good, total) reader, e.g.
// counter values. total must include good.
func Ratio(read func() (good, total float64)) Indicator {
	return Indicator{read: read}
}

// Latency builds an indicator from a histogram snapshot reader: good is
// the count of observations at or below threshold (clamped to the bucket
// boundary at or above threshold, so pick thresholds on bucket bounds for
// exact accounting), total is the snapshot count.
func Latency(threshold float64, snap func() telemetry.HistogramSnapshot) Indicator {
	return Indicator{read: func() (float64, float64) {
		s := snap()
		var good uint64
		for i, u := range s.Upper {
			if u <= threshold {
				good += s.Counts[i]
			}
		}
		return float64(good), float64(s.Count)
	}}
}

// A Source is what the shared check SLOs read: a *telemetry.Registry
// answers from its families in place (a scenario run), a
// *telemetry.Metrics from a scrape (acmon's fleet rollup).
type Source interface {
	// Sum adds the values of a counter family's series whose label has
	// the given value; an empty label matches every series.
	Sum(family, label, value string) float64
	// HistogramFrom merges every series of a histogram family.
	HistogramFrom(family string) (telemetry.HistogramSnapshot, error)
}

// HistogramOf reads family from the source src returns as one snapshot,
// the empty snapshot when src returns nil or cannot read the family.
func HistogramOf(src func() Source, family string) func() telemetry.HistogramSnapshot {
	return func() telemetry.HistogramSnapshot {
		s := src()
		if s == nil {
			return telemetry.HistogramSnapshot{}
		}
		snap, err := s.HistogramFrom(family)
		if err != nil {
			return telemetry.HistogramSnapshot{}
		}
		return snap
	}
}

// CheckSpecs builds the two check SLOs a simulated run and a live fleet
// are both judged by, with base's windows and burn thresholds, over what
// src returns (nil reads as no events):
//
//   - check-latency: the fraction of decided checks, across all outcomes,
//     decided within the query timeout (bucket-clamped). A zero
//     queryTimeout means core.DefaultQueryTimeout, as at RegisterApp.
//   - check-availability: ok / (ok + timeout + shed). A check that falls
//     back to default-allow exhausted its rounds, so it counts with the
//     timeouts; shed manager queries count as bad even though the host
//     may recover on retry — a conservative, operator-facing composite.
func CheckSpecs(base Spec, queryTimeout time.Duration, src func() Source) []Spec {
	if queryTimeout == 0 {
		queryTimeout = core.DefaultQueryTimeout
	}
	latency := base
	latency.Name = "check-latency"
	latency.Objective = 0.99
	latency.Indicator = Latency(queryTimeout.Seconds(), HistogramOf(src, "wanac_host_check_latency_seconds"))

	availability := base
	availability.Name = "check-availability"
	availability.Objective = 0.99
	availability.Indicator = Ratio(func() (float64, float64) {
		s := src()
		if s == nil {
			return 0, 0
		}
		checks := func(outcome string) float64 { return s.Sum("wanac_host_checks_total", "outcome", outcome) }
		ok := checks("cache_hit") + checks("allowed") + checks("denied")
		bad := checks("default_allowed") +
			s.Sum("wanac_host_query_timeouts_total", "", "") +
			s.Sum("wanac_manager_queries_total", "result", "shed")
		return ok, ok + bad
	})
	return []Spec{latency, availability}
}

// A Spec declares one SLO: the objective fraction of good events over the
// error-budget window, the indicator that measures it, and the
// multi-window burn-rate alert policy.
type Spec struct {
	// Name identifies the SLO ("check-latency", "revocation-lag", ...).
	Name string
	// Objective is the target good fraction in (0,1), e.g. 0.99.
	Objective float64
	// Window is the error-budget accounting window. Default 1h.
	Window time.Duration
	// FastWindow/SlowWindow are the burn-rate alert windows. Defaults
	// 5m/1h. Both must be <= Window for the pruning horizon to hold.
	FastWindow, SlowWindow time.Duration
	// FastBurn/SlowBurn are the firing thresholds for the two windows.
	// Defaults 14.4 and 6 (the workbook's page-severity pair for a 1h/5m
	// split: 14.4 burns 2% of a 30d budget in 1h).
	FastBurn, SlowBurn float64
	// Indicator supplies the cumulative good/total reads.
	Indicator Indicator
}

func (s Spec) withDefaults() Spec {
	if s.Window <= 0 {
		s.Window = time.Hour
	}
	if s.FastWindow <= 0 {
		s.FastWindow = 5 * time.Minute
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = time.Hour
	}
	if s.FastBurn <= 0 {
		s.FastBurn = 14.4
	}
	if s.SlowBurn <= 0 {
		s.SlowBurn = 6
	}
	return s
}

func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec needs a name")
	}
	if s.Objective <= 0 || s.Objective >= 1 {
		return fmt.Errorf("slo: %s: objective %v outside (0,1)", s.Name, s.Objective)
	}
	if s.Indicator.read == nil {
		return fmt.Errorf("slo: %s: no indicator", s.Name)
	}
	return nil
}

// Status is the evaluated state of one SLO at a sample instant. Its JSON
// form is one entry of acmon's JSONL health snapshot.
type Status struct {
	Name      string    `json:"name"`
	Objective float64   `json:"objective"`
	At        time.Time `json:"-"`
	// Good/Total are the cumulative indicator reads at At.
	Good  float64 `json:"-"`
	Total float64 `json:"-"`
	// SLI is the good fraction over Window (1 when no events).
	SLI float64 `json:"sli"`
	// FastBurn/SlowBurn are the burn rates over the two alert windows.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetConsumed is the fraction of Window's error budget consumed by
	// the bad events inside Window: burn rate over the budget window. 1.0
	// means the budget is exactly spent; >1 means the objective is missed.
	BudgetConsumed float64 `json:"budget_consumed"`
	// Firing reports whether the burn-rate alert is currently firing, and
	// Fired how many times it has transitioned to firing so far.
	Firing bool `json:"firing"`
	Fired  int  `json:"fired"`
}

// A Transition records one alert edge: Firing true is a rise, false a
// clear.
type Transition struct {
	Name   string
	At     time.Time
	Firing bool
}

// point is one indicator sample on the engine's clock.
type point struct {
	t           time.Time
	good, total float64
}

type series struct {
	spec   Spec
	points []point
	status Status
	edge   bool // alert edge pending transition record
}

// An Engine evaluates a fixed set of SLO specs against an explicit clock.
// Call Sample at a regular cadence (every few seconds); Status and
// Transitions may be read concurrently.
type Engine struct {
	now func() time.Time

	mu          sync.Mutex
	series      []*series
	transitions []Transition
}

// NewEngine builds an engine over specs, reading time from now (e.g.
// time.Now for a live fleet, the simnet scheduler clock for scenarios).
// Invalid specs panic: specs are static configuration, not input.
func NewEngine(now func() time.Time, specs ...Spec) *Engine {
	if now == nil {
		panic("slo: NewEngine needs a clock")
	}
	e := &Engine{now: now}
	for _, s := range specs {
		s = s.withDefaults()
		if err := s.validate(); err != nil {
			panic(err)
		}
		e.series = append(e.series, &series{
			spec:   s,
			status: Status{Name: s.Name, Objective: s.Objective, SLI: 1},
		})
	}
	return e
}

// Sample reads every indicator once at the current clock, updates SLIs,
// burn rates, budget accounting, and alert states, and returns the new
// statuses (in spec order).
//
// The first sample establishes the window baseline and always reports
// healthy: indicators read cumulative counts, and events that happened
// before the engine started watching (e.g. a fleet's history before acmon
// attached) are not this engine's to judge. Windows begin discriminating
// from the second sample on.
func (e *Engine) Sample() []Status {
	t := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, len(e.series))
	for i, se := range e.series {
		good, total := se.spec.Indicator.read()
		se.observe(t, good, total)
		out[i] = se.status
		if se.edge {
			e.transitions = append(e.transitions, Transition{Name: se.spec.Name, At: t, Firing: se.status.Firing})
			se.edge = false
		}
	}
	return out
}

// Status returns the most recent evaluation of every SLO, in spec order.
// Before the first Sample, statuses report SLI 1 and no burn.
func (e *Engine) Status() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, len(e.series))
	for i, se := range e.series {
		out[i] = se.status
	}
	return out
}

// Transitions returns all alert edges recorded so far, in time order.
func (e *Engine) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.transitions...)
}

// observe appends one sample and re-evaluates the series' status.
func (se *series) observe(t time.Time, good, total float64) {
	// Clamp regressions (restarted source): treat as a fresh baseline.
	if n := len(se.points); n > 0 {
		last := se.points[n-1]
		if good < last.good || total < last.total {
			se.points = se.points[:0]
		}
	}
	se.points = append(se.points, point{t, good, total})
	se.prune(t)

	sp := se.spec
	sli := se.window(t, sp.Window)
	fast := se.window(t, sp.FastWindow)
	slow := se.window(t, sp.SlowWindow)

	st := &se.status
	st.At = t
	st.Good, st.Total = good, total
	st.SLI = sli
	st.FastBurn = burn(fast, sp.Objective)
	st.SlowBurn = burn(slow, sp.Objective)
	st.BudgetConsumed = burn(sli, sp.Objective)

	firing := st.FastBurn >= sp.FastBurn && st.SlowBurn >= sp.SlowBurn
	if firing && !st.Firing {
		st.Fired++
	}
	if firing != st.Firing {
		st.Firing = firing
		se.edge = true
	}
}

// window returns the good fraction over the trailing window w ending at
// t: the delta between the newest sample and the newest sample at least w
// old (or the oldest retained sample while the window is still filling).
// No events in the window means SLI 1 — an idle service is meeting its
// objective, not missing it.
func (se *series) window(t time.Time, w time.Duration) float64 {
	n := len(se.points)
	if n == 0 {
		return 1
	}
	cur := se.points[n-1]
	base := se.points[0]
	cutoff := t.Add(-w)
	// Latest point with t <= cutoff; points are time-ordered.
	i := sort.Search(n, func(i int) bool { return se.points[i].t.After(cutoff) })
	if i > 0 {
		base = se.points[i-1]
	}
	dg, dt := cur.good-base.good, cur.total-base.total
	if dt <= 0 {
		return 1
	}
	sli := dg / dt
	if sli < 0 {
		return 0
	}
	if sli > 1 {
		return 1
	}
	return sli
}

// burn converts a windowed SLI to a burn rate against the objective.
func burn(sli, objective float64) float64 {
	bad := 1 - sli
	budget := 1 - objective
	if budget <= 0 {
		return math.Inf(1)
	}
	return bad / budget
}

// prune drops samples older than the longest window, keeping one sample
// at or beyond the horizon as the window baseline.
func (se *series) prune(t time.Time) {
	sp := se.spec
	horizon := sp.Window
	if sp.SlowWindow > horizon {
		horizon = sp.SlowWindow
	}
	cutoff := t.Add(-horizon)
	n := len(se.points)
	i := sort.Search(n, func(i int) bool { return se.points[i].t.After(cutoff) })
	// Keep points[i-1] (the newest at-or-before-horizon sample) as the
	// baseline for full windows.
	if i > 1 {
		se.points = append(se.points[:0], se.points[i-1:]...)
	}
}

// Register exports the engine's state on reg as wanac_slo_* families:
// per-SLO SLI, fast/slow burn rates, budget consumed, a 0/1 firing flag,
// and a fired-transitions counter, all labeled {slo}. Values refresh from
// the latest Sample at exposition time.
func (e *Engine) Register(reg *telemetry.Registry) {
	get := func(name string) func() Status {
		return func() Status {
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, se := range e.series {
				if se.spec.Name == name {
					return se.status
				}
			}
			return Status{}
		}
	}
	sli := reg.GaugeVec("wanac_slo_sli", "Windowed service-level indicator per SLO (1 = meeting objective).", "slo")
	objective := reg.GaugeVec("wanac_slo_objective", "Configured objective per SLO.", "slo")
	burnRate := reg.GaugeVec("wanac_slo_burn_rate", "Error-budget burn rate per SLO and alert window.", "slo", "window")
	budget := reg.GaugeVec("wanac_slo_budget_consumed", "Fraction of the error budget consumed over the budget window.", "slo")
	firing := reg.GaugeVec("wanac_slo_alert_firing", "1 while the multi-window burn-rate alert is firing.", "slo")
	fired := reg.CounterVec("wanac_slo_alerts_fired_total", "Rising alert transitions per SLO.", "slo")
	for _, se := range e.series {
		name := se.spec.Name
		read := get(name)
		sli.WithFunc(func() float64 { return read().SLI }, name)
		objective.WithFunc(func() float64 { return read().Objective }, name)
		burnRate.WithFunc(func() float64 { return read().FastBurn }, name, "fast")
		burnRate.WithFunc(func() float64 { return read().SlowBurn }, name, "slow")
		budget.WithFunc(func() float64 { return read().BudgetConsumed }, name)
		firing.WithFunc(func() float64 {
			if read().Firing {
				return 1
			}
			return 0
		}, name)
		fired.WithFunc(func() float64 { return float64(read().Fired) }, name)
	}
}
