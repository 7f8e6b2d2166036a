// Package harness is a deterministic randomized protocol checker for the
// wide-area access control system: a seeded generator samples configurations
// across the paper's whole tunable lattice (M, C, Te, R, clock bound b,
// network loss/latency) together with randomized event schedules (grants,
// revocations, checks, invokes, partitions, heals, host resets, name-service
// churn), a runner replays the schedule against a full sim.World, and a set
// of invariant oracles machine-check the paper's guarantees on the resulting
// execution. The same Runner runs internal/scenario's named catalog. The
// oracles:
//
//   - revocation safety: no host grants access more than the Te bound after
//     a revocation reached an update quorum (§3.2-3.3);
//   - monotonic sequencing: managers apply each origin's updates in strictly
//     increasing UpdateSeq order (§3.1's per-origin FIFO dissemination);
//   - cache hygiene: hosts never retain cache entries past expiry across a
//     purge, and never exceed a configured cache bound (§3.2);
//   - eventual availability: once the network heals, checks for authorized
//     users succeed again within a bounded settling window (§2.3, Figure 4).
//
// Every run is reproducible from its seed: the same seed generates the same
// scenario and, because the simulator is a single-threaded discrete-event
// system, the same execution. On failure the harness minimizes the event
// schedule with delta debugging (see Minimize) so the violation is
// replayable from a short log.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// EventKind enumerates the schedule operations the generator can emit.
type EventKind uint8

// Schedule operations.
const (
	// EvGrant submits Add(use) for a user via a manager.
	EvGrant EventKind = iota + 1
	// EvRevoke submits Revoke(use) for a user via a manager.
	EvRevoke
	// EvCheck runs an access check probe on a host (oracle-judged).
	EvCheck
	// EvInvoke delivers application traffic to a host from a user agent.
	EvInvoke
	// EvPartitionHost cuts a host's links to a subset of managers.
	EvPartitionHost
	// EvPartitionPair cuts the link between two managers.
	EvPartitionPair
	// EvHeal restores every link and arms the availability oracle.
	EvHeal
	// EvReset crashes and recovers a host with an empty cache (§3.4).
	EvReset
	// EvNameChurn re-registers the manager set (permuted) at the name
	// service, forcing TTL-based re-resolution on hosts (§3.2).
	EvNameChurn
)

var kindNames = map[EventKind]string{
	EvGrant:         "grant",
	EvRevoke:        "revoke",
	EvCheck:         "check",
	EvInvoke:        "invoke",
	EvPartitionHost: "partition-host",
	EvPartitionPair: "partition-pair",
	EvHeal:          "heal",
	EvReset:         "reset",
	EvNameChurn:     "name-churn",
}

// String returns the event kind's stable name.
func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one scheduled operation of a scenario, with all parameters fixed
// at generation time so replaying a schedule (or a subset of it, during
// minimization) is fully deterministic.
type Event struct {
	At   time.Duration // offset from scenario start
	Kind EventKind
	User int   // user index (grant/revoke/check/invoke)
	Host int   // host index (check/invoke/partition-host/reset)
	Mgr  int   // manager index (grant/revoke/partition-pair)
	Mgr2 int   // second manager (partition-pair)
	Mgrs []int // manager subset (partition-host)
}

// String renders one schedule line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8s %s", e.At.Truncate(time.Millisecond), e.Kind)
	switch e.Kind {
	case EvGrant, EvRevoke:
		fmt.Fprintf(&b, " u%d via m%d", e.User, e.Mgr)
	case EvCheck, EvInvoke:
		fmt.Fprintf(&b, " u%d at h%d", e.User, e.Host)
	case EvPartitionHost:
		fmt.Fprintf(&b, " h%d from %v", e.Host, e.Mgrs)
	case EvPartitionPair:
		fmt.Fprintf(&b, " m%d--m%d", e.Mgr, e.Mgr2)
	case EvReset:
		fmt.Fprintf(&b, " h%d", e.Host)
	}
	return b.String()
}

// Params is a sampled deployment configuration: one point of the paper's
// (M, C, Te, R) tradeoff lattice plus environment knobs.
type Params struct {
	Managers    int
	CheckQuorum int // C
	Hosts       int
	Users       int

	Te           time.Duration
	MaxAttempts  int // R
	DefaultAllow bool
	RefreshAhead time.Duration

	// ClockBound is the paper's b; host clocks run at rates in [b, 1].
	ClockBound     float64
	HostClockRates []float64

	Loss      float64
	Duplicate float64
	// Latency selects a simnet latency model: "fixed", "uniform" or "exp".
	Latency string

	UseNameService bool
	NameServiceTTL time.Duration

	// CacheLimit bounds each host's ACL cache (0 = unbounded); the cache
	// oracle asserts the bound is respected.
	CacheLimit int

	QueryTimeout time.Duration
	UpdateRetry  time.Duration

	// Horizon is how much virtual time the schedule spans; the runner adds a
	// settling tail so late probes resolve.
	Horizon time.Duration
}

// String renders the configuration on one line.
func (p Params) String() string {
	return fmt.Sprintf(
		"M=%d C=%d hosts=%d users=%d Te=%s R=%d defaultAllow=%v refreshAhead=%s b=%.2f rates=%v loss=%.3f dup=%.3f latency=%s ns=%v ttl=%s cacheLimit=%d horizon=%s",
		p.Managers, p.CheckQuorum, p.Hosts, p.Users, p.Te, p.MaxAttempts,
		p.DefaultAllow, p.RefreshAhead, p.ClockBound, p.HostClockRates,
		p.Loss, p.Duplicate, p.Latency, p.UseNameService, p.NameServiceTTL,
		p.CacheLimit, p.Horizon)
}

// Scenario is a reproducible test case: a configuration plus a fixed event
// schedule. Identical scenarios produce identical executions.
type Scenario struct {
	Seed   int64
	Params Params
	Events []Event
}

// String renders the scenario header and full schedule, the replay artifact
// printed when an oracle fires.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d\n%s\n%d events:\n", s.Seed, s.Params, len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// Generate deterministically samples a scenario from a seed: first the
// configuration, then an event schedule over the horizon. The same seed
// always yields the same scenario.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))

	m := 1 + rng.Intn(5)     // M in {1..5}
	c := 1 + rng.Intn(m)     // C in {1..M}
	hosts := 1 + rng.Intn(4) // {1..4}
	users := 2 + rng.Intn(5) // {2..6}
	te := []time.Duration{20 * time.Second, 30 * time.Second, 45 * time.Second, time.Minute}[rng.Intn(4)]
	r := 1 + rng.Intn(3) // R in {1..3}
	bound := []float64{1, 0.9, 0.8}[rng.Intn(3)]

	p := Params{
		Managers:     m,
		CheckQuorum:  c,
		Hosts:        hosts,
		Users:        users,
		Te:           te,
		MaxAttempts:  r,
		DefaultAllow: rng.Float64() < 0.25,
		ClockBound:   bound,
		Loss:         []float64{0, 0, 0.02, 0.05, 0.10, 0.15}[rng.Intn(6)],
		Duplicate:    []float64{0, 0, 0.02, 0.05}[rng.Intn(4)],
		Latency:      []string{"fixed", "uniform", "exp"}[rng.Intn(3)],
		CacheLimit:   []int{0, 0, 0, 2, 4}[rng.Intn(5)],
		QueryTimeout: time.Second,
		UpdateRetry:  2 * time.Second,
		Horizon:      12 * time.Minute,
	}
	if rng.Float64() < 0.3 {
		p.RefreshAhead = te / 4
	}
	p.HostClockRates = make([]float64, hosts)
	for i := range p.HostClockRates {
		// Rates within [b, 1]: local clocks may only run slow, per §3.2.
		p.HostClockRates[i] = bound + rng.Float64()*(1-bound)
	}
	if rng.Float64() < 0.3 {
		p.UseNameService = true
		p.NameServiceTTL = []time.Duration{0, 30 * time.Second, 2 * time.Minute}[rng.Intn(3)]
	}

	sc := Scenario{Seed: seed, Params: p}
	sc.Events = generateSchedule(rng, p)
	return sc
}

// generateSchedule samples the event list. Disruptions (partitions, resets,
// churn) are confined to the first 70% of the horizon and followed by a
// final heal, so the eventual-availability oracle always gets a judgeable
// quiet tail.
func generateSchedule(rng *rand.Rand, p Params) []Event {
	var evs []Event
	disruptWindow := p.Horizon * 7 / 10
	at := func(limit time.Duration) time.Duration {
		return time.Duration(rng.Int63n(int64(limit)))
	}

	// Access-right churn: ~one admin op per 25s of horizon.
	for i := 0; i < int(p.Horizon/(25*time.Second)); i++ {
		kind := EvGrant
		if rng.Float64() < 0.5 {
			kind = EvRevoke
		}
		evs = append(evs, Event{
			At: at(p.Horizon), Kind: kind,
			User: rng.Intn(p.Users), Mgr: rng.Intn(p.Managers),
		})
	}
	// Probes: ~one check per 3s, the oracle-judged workload.
	for i := 0; i < int(p.Horizon/(3*time.Second)); i++ {
		evs = append(evs, Event{
			At: at(p.Horizon), Kind: EvCheck,
			User: rng.Intn(p.Users), Host: rng.Intn(p.Hosts),
		})
	}
	// Application traffic through the full Invoke path.
	for i := 0; i < int(p.Horizon/(15*time.Second)); i++ {
		evs = append(evs, Event{
			At: at(p.Horizon), Kind: EvInvoke,
			User: rng.Intn(p.Users), Host: rng.Intn(p.Hosts),
		})
	}
	// Host-from-managers partitions: random non-empty manager subsets.
	for i := 0; i < int(p.Horizon/(80*time.Second)); i++ {
		var sub []int
		for mi := 0; mi < p.Managers; mi++ {
			if rng.Float64() < 0.6 {
				sub = append(sub, mi)
			}
		}
		if len(sub) == 0 {
			sub = []int{rng.Intn(p.Managers)}
		}
		evs = append(evs, Event{
			At: at(disruptWindow), Kind: EvPartitionHost,
			Host: rng.Intn(p.Hosts), Mgrs: sub,
		})
	}
	// Manager-pair partitions (needs at least two managers).
	if p.Managers >= 2 {
		for i := 0; i < int(p.Horizon/(2*time.Minute)); i++ {
			a := rng.Intn(p.Managers)
			b := rng.Intn(p.Managers - 1)
			if b >= a {
				b++
			}
			evs = append(evs, Event{At: at(disruptWindow), Kind: EvPartitionPair, Mgr: a, Mgr2: b})
		}
	}
	// Intermediate heals, plus the guaranteed final heal.
	for i := 0; i < int(p.Horizon/(3*time.Minute)); i++ {
		evs = append(evs, Event{At: at(disruptWindow), Kind: EvHeal})
	}
	evs = append(evs, Event{At: disruptWindow + p.Horizon/20, Kind: EvHeal})
	// Host crash/recovery.
	for i := 0; i < int(p.Horizon/(4*time.Minute)); i++ {
		evs = append(evs, Event{At: at(disruptWindow), Kind: EvReset, Host: rng.Intn(p.Hosts)})
	}
	// Name-service churn.
	if p.UseNameService {
		for i := 0; i < int(p.Horizon/(3*time.Minute)); i++ {
			evs = append(evs, Event{At: at(p.Horizon), Kind: EvNameChurn})
		}
	}

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}
