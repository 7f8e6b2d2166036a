package scenario

import (
	"fmt"
	"strings"
	"time"

	"wanac/internal/core"
	"wanac/internal/harness"
	"wanac/internal/simnet"
)

// DefaultTe is the revocation bound used when a scenario doesn't set one.
const DefaultTe = 60 * time.Second

// Scenario is one named, fully specified simulation: a topology, a load
// shape, a population, fault injections, and the policy under test. Build
// one with New and the With* chain; run it with Run. A scenario plus a seed
// is a pure function — replaying the pair reproduces the identical Result.
type Scenario struct {
	Name    string
	Summary string

	Topology   Topology
	Policy     core.Policy // zero CheckQuorum selects Balanced(M, Te)
	Te         time.Duration
	Load       Curve
	Population Population
	Faults     []Fault

	// Duration is the traffic horizon; the runner appends a settle tail
	// (harness.Settle) so in-flight work and post-heal probes resolve.
	Duration time.Duration
	// AdminEvery, when positive, runs revoke→measure→re-grant churn on the
	// authorized users at this interval, producing the revocation-lag
	// distribution. Zero disables churn.
	AdminEvery time.Duration
	// CacheLimit bounds host caches (0 = unbounded), enforced by the
	// cache-hygiene oracle.
	CacheLimit int
	// Loss is the ambient per-message drop probability.
	Loss float64
	// Seed is the default seed used by `acsim run` and the catalog tests.
	Seed int64
	// Break injects deliberate protocol bugs so a scenario can demonstrate a
	// known failure shape — the catalog's stale-allow-demo uses both to
	// reproduce partition → stale-allow with a flight-dump artifact.
	Break harness.Options

	// Overload is the manager-side admission-control configuration (token
	// buckets, adaptive Te, Retry-After clamp). The zero value runs
	// unprotected.
	Overload core.OverloadConfig
	// Capacity, when its ServiceTime is positive, gives every manager a
	// finite-rate server with a bounded two-lane inbound queue
	// (simnet.Capacity), so a check flood creates genuine manager overload
	// instead of being absorbed instantaneously.
	Capacity simnet.Capacity
}

// New starts a scenario definition.
func New(name, summary string) *Scenario {
	return &Scenario{
		Name:     name,
		Summary:  summary,
		Topology: Atlantic3(),
		Load:     Steady{RPS: 5},
		Duration: 2 * time.Minute,
		Seed:     1,
	}
}

// WithTopology places the deployment.
func (s *Scenario) WithTopology(t Topology) *Scenario { s.Topology = t; return s }

// WithPolicy sets the host-side policy. The scenario's Te overrides the
// policy's (they must agree for the oracle bound to be meaningful).
func (s *Scenario) WithPolicy(p core.Policy) *Scenario { s.Policy = p; return s }

// WithTe sets the revocation bound.
func (s *Scenario) WithTe(te time.Duration) *Scenario { s.Te = te; return s }

// WithLoad sets the arrival curve.
func (s *Scenario) WithLoad(c Curve) *Scenario { s.Load = c; return s }

// WithPopulation sets who the traffic is for.
func (s *Scenario) WithPopulation(p Population) *Scenario { s.Population = p; return s }

// WithFaults appends fault injections.
func (s *Scenario) WithFaults(f ...Fault) *Scenario { s.Faults = append(s.Faults, f...); return s }

// For sets the traffic horizon.
func (s *Scenario) For(d time.Duration) *Scenario { s.Duration = d; return s }

// WithAdminChurn enables revoke/re-grant churn at the given interval.
func (s *Scenario) WithAdminChurn(every time.Duration) *Scenario { s.AdminEvery = every; return s }

// WithCacheLimit bounds host caches.
func (s *Scenario) WithCacheLimit(n int) *Scenario { s.CacheLimit = n; return s }

// WithBreak injects deliberate protocol bugs.
func (s *Scenario) WithBreak(b harness.Options) *Scenario { s.Break = b; return s }

// WithOverload sets the manager-side admission-control configuration.
func (s *Scenario) WithOverload(o core.OverloadConfig) *Scenario { s.Overload = o; return s }

// WithManagerCapacity installs a finite-capacity server on every manager.
func (s *Scenario) WithManagerCapacity(c simnet.Capacity) *Scenario { s.Capacity = c; return s }

// te returns the effective revocation bound.
func (s *Scenario) te() time.Duration {
	if s.Te > 0 {
		return s.Te
	}
	return DefaultTe
}

// oracleTe returns the revocation bound the oracles hold the run to:
// with the adaptive-Te controller enabled, managers may legally widen grant
// expiry up to AdaptiveTe.Max, so that cap — not the base Te — is the
// promise the deployment makes.
func (s *Scenario) oracleTe() time.Duration {
	if m := s.Overload.AdaptiveTe.Max; m > s.te() {
		return m
	}
	return s.te()
}

// policy returns the effective host policy with the scenario's Te applied.
func (s *Scenario) policy() core.Policy {
	p := s.Policy
	if p.CheckQuorum == 0 {
		p = core.Balanced(s.Topology.Managers(), s.te())
	}
	p.Te = s.te()
	return p
}

// validate rejects scenario definitions the runner cannot honor.
func (s *Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Topology.Managers() < 1 {
		return fmt.Errorf("scenario %s: topology has no managers", s.Name)
	}
	if s.Load == nil {
		return fmt.Errorf("scenario %s: no load curve", s.Name)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: non-positive duration", s.Name)
	}
	for _, f := range s.Faults {
		at, dur := f.Window()
		if at+dur > s.Duration {
			return fmt.Errorf("scenario %s: fault %q ends at %s, after the %s horizon",
				s.Name, f.Describe(), at+dur, s.Duration)
		}
	}
	return nil
}

// FaultSummary renders the fault shapes on one line ("none" when clean).
func (s *Scenario) FaultSummary() string {
	if len(s.Faults) == 0 {
		return "none"
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.Describe()
	}
	return strings.Join(parts, "; ")
}

// String renders the full definition for `acsim run` transcripts.
func (s *Scenario) String() string {
	p := s.policy()
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %s\n", s.Name, s.Summary)
	fmt.Fprintf(&b, "  topology:   %s\n", s.Topology)
	fmt.Fprintf(&b, "  policy:     M=%d C=%d Te=%s R=%d default-allow=%v\n",
		s.Topology.Managers(), p.CheckQuorum, p.Te, p.MaxAttempts, p.DefaultAllow)
	fmt.Fprintf(&b, "  load:       %s, %s\n", s.Load.Describe(), s.Population.Describe())
	fmt.Fprintf(&b, "  faults:     %s\n", s.FaultSummary())
	fmt.Fprintf(&b, "  duration:   %s (+settle)", s.Duration)
	if s.AdminEvery > 0 {
		fmt.Fprintf(&b, ", admin churn every %s", s.AdminEvery)
	}
	if s.CacheLimit > 0 {
		fmt.Fprintf(&b, ", cache limit %d", s.CacheLimit)
	}
	if s.Loss > 0 {
		fmt.Fprintf(&b, ", loss %.2g", s.Loss)
	}
	if s.Capacity.ServiceTime > 0 {
		fmt.Fprintf(&b, "\n  capacity:   service=%s queue=%d lane=%d fifo=%v",
			s.Capacity.ServiceTime, s.Capacity.QueueDepth, s.Capacity.LaneDepth, s.Capacity.FIFO)
	}
	if rl := s.Overload.RateLimit; rl != (core.RateLimitConfig{}) {
		fmt.Fprintf(&b, "\n  admission:  app=%g/%g host=%g/%g (rps/burst)",
			rl.AppRPS, rl.AppBurst, rl.HostRPS, rl.HostBurst)
	}
	if at := s.Overload.AdaptiveTe; at.Max > 0 {
		fmt.Fprintf(&b, "\n  adaptive-te: max=%s interval=%s", at.Max, at.Interval)
	}
	if s.Break != (harness.Options{}) {
		fmt.Fprintf(&b, "\n  BROKEN:     inflate-te=%v drop-revoke-notices=%v",
			s.Break.InflateTe, s.Break.DropRevokeNotices)
	}
	return b.String()
}
