package harness

import (
	"fmt"
	"strconv"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// Result is the outcome of one seeded scenario's execution.
type Result struct {
	Scenario Scenario
	Outcome
	// Invokes counts application invocations that produced a reply.
	Invokes int
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

// worldConfig translates sampled Params into a sim.Config.
func worldConfig(sc Scenario) sim.Config {
	p := sc.Params
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
		Te:             p.Te,
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
		// Each node's journal keeps its decisions at harness scale: a
		// failing seed's flight dump shows every decision's provenance.
		AuditRing: auditRing,
	}
}

// flightRing is the flight dump's per-node window for harness runs: the
// replay that makes a failing seed's dump keeps a full scenario's records
// per node at harness scale, so the seed explains itself.
const flightRing = 8192

// auditRing is the per-node decisions window for harness runs.
const auditRing = 8192

func userID(i int) wire.UserID { return wire.UserID(fmt.Sprintf("u%d", i)) }

// RunScenario executes one scenario to completion and reports what the
// oracles saw. The execution is a pure function of (scenario, options):
// replaying the same pair reproduces the identical result.
func RunScenario(sc Scenario, opt Options) (*Result, error) {
	res, _, err := runScenario(sc, opt, 0)
	return res, err
}

// runScenario is RunScenario, returning its runner too, with the world
// keeping its trace log for a flight dump of ring records per node when
// ring > 0.
func runScenario(sc Scenario, opt Options, ring int) (*Result, *Runner, error) {
	p := sc.Params
	users := make([]wire.UserID, p.Users)
	for i := range users {
		users[i] = userID(i)
	}
	cfg := worldConfig(sc)
	cfg.FlightRing = ring
	r, err := NewRunner("seed"+strconv.FormatInt(sc.Seed, 10), cfg, opt, p.CacheLimit, users)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: build world for seed %d: %w", sc.Seed, err)
	}
	res := &Result{Scenario: sc}

	// Count invoke replies arriving back at the shared user agent.
	agent := wire.NodeID("harness-agent")
	r.W.Net.Attach(agent, simnet.HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
		if _, ok := msg.(wire.InvokeReply); ok {
			res.Invokes++
		}
	}))
	// The whole script is scheduled up front, before the runner's sweeps.
	for _, e := range sc.Events {
		r.W.Sched.After(e.At, func() { r.exec(e, agent) })
	}
	var replay func() *flight.Dump
	if ring == 0 {
		replay = func() *flight.Dump {
			if res, _, err := runScenario(sc, opt, flightRing); err == nil {
				return res.FlightDump()
			}
			return nil
		}
	}
	res.Outcome = r.Run(p.Horizon, nil, replay)
	return res, r, nil
}

// exec dispatches one scheduled event. It runs inside a scheduler callback.
func (r *Runner) exec(e Event, agent wire.NodeID) {
	w := r.W
	switch e.Kind {
	case EvGrant:
		r.Submit(e.Mgr, wire.OpAdd, r.users[e.User], nil)
	case EvRevoke:
		r.Submit(e.Mgr, wire.OpRevoke, r.users[e.User], nil)
	case EvCheck:
		r.Check(e.Host, r.users[e.User], nil)
	case EvInvoke:
		w.Net.Send(agent, sim.HostID(e.Host), wire.Invoke{
			App: w.Cfg.App, User: r.users[e.User], Payload: []byte("ping"),
		})
	case EvPartitionHost:
		r.Disrupt()
		w.PartitionHostFromManagers(e.Host, e.Mgrs...)
	case EvPartitionPair:
		r.Disrupt()
		w.PartitionManagerPair(e.Mgr, e.Mgr2)
	case EvHeal:
		w.Heal()
		r.Healed()
	case EvReset:
		r.Disrupt()
		r.lastReset[e.Host] = r.now()
		w.Hosts[e.Host].Reset()
	case EvNameChurn:
		if w.Name != nil {
			// Re-register the same manager set rotated by the event time:
			// deterministic churn that forces TTL re-resolution without
			// changing membership.
			m := w.Cfg.Managers
			rot := int(e.At/time.Second) % m
			ids := make([]wire.NodeID, m)
			for i := 0; i < m; i++ {
				ids[i] = sim.ManagerID((i + rot) % m)
			}
			w.Name.SetManagers(w.Cfg.App, ids, w.Cfg.NameServiceTTL)
		}
	}
}

// FormatFailure renders the replay artifact for a failed run under opt: the
// seed, the violations, the replay command, and the (possibly minimized)
// schedule.
func FormatFailure(res *Result, opt Options) string {
	s := fmt.Sprintf("harness failure: %d violation(s) at seed %d\n", len(res.Violations), res.Scenario.Seed)
	for _, v := range res.Violations {
		s += "  " + v.String() + "\n"
	}
	s += "replay: " + replayCommand(res.Scenario.Seed, opt) + "\n"
	if res.FlightPath != "" {
		s += "flight dump: " + res.FlightPath + " (render with: go run ./cmd/acaudit -timeline " + res.FlightPath + ")\n"
	}
	s += res.Scenario.String()
	return s
}

// replayCommand is the command that reruns seed under opt: the replay line
// of FormatFailure and of acsim check's failures[].replay.
func replayCommand(seed int64, opt Options) string {
	cmd := "go test ./internal/harness -run TestHarness -harness.seed=" + strconv.FormatInt(seed, 10)
	if opt.InflateTe {
		cmd += " -harness.inflate-te"
	}
	if opt.DropRevokeNotices {
		cmd += " -harness.drop-notices"
	}
	return cmd
}
