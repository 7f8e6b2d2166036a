package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"wanac/internal/quorum"
	"wanac/internal/wire"
)

// Defaults applied by Policy.withDefaults and ManagerAppConfig.withDefaults.
const (
	// DefaultQueryTimeout bounds one query round before the host retries
	// (Figure 2: "if response before timeout").
	DefaultQueryTimeout = 2 * time.Second
	// DefaultUpdateRetry is the manager's retransmission interval for the
	// persistent dissemination strategy (§3.3).
	DefaultUpdateRetry = 2 * time.Second
	// DefaultHeartbeatEvery is the probe interval for the freeze strategy.
	DefaultHeartbeatEvery = 1 * time.Second
	// DefaultSyncRetry is the recovering manager's SyncRequest interval.
	DefaultSyncRetry = 2 * time.Second
)

// ErrConfig reports an invalid policy or app configuration.
var ErrConfig = errors.New("core: invalid configuration")

// Policy is an application's host-side tradeoff choice (§2.3, §4.1): the
// four tunables M (implied by Managers), C, Te, and R, plus operational
// knobs. The zero value is not valid; construct via one of the preset
// helpers or fill the fields and let validation apply defaults.
type Policy struct {
	// CheckQuorum is C: the number of distinct manager confirmations
	// required before an uncached access is allowed (§3.3). Must be in
	// [1, M].
	CheckQuorum int
	// Te is the global revocation time bound: after a revocation reaches an
	// update quorum at time t, no host grants access past t+Te (§3.2). Zero
	// selects the basic protocol (Figure 2: no expiration; revocation relies
	// solely on forwarded notices).
	Te time.Duration
	// ClockBound is the paper's b (0 < b <= 1): every local clock measures
	// at least b local time units per real unit. Grants are cached for
	// te = Te*b local units. Zero means 1 (perfect clocks).
	ClockBound float64
	// QueryTimeout bounds each query round; responses arriving after the
	// round's timer are discarded (§3.2).
	QueryTimeout time.Duration
	// MaxAttempts is R: the number of query rounds before giving up. Zero
	// means retry forever (Figure 2's unbounded loop). With DefaultAllow
	// set, giving up allows access (Figure 4); otherwise it denies.
	MaxAttempts int
	// DefaultAllow enables the high-availability rule of Figure 4: after R
	// failed verification attempts, allow access by default.
	DefaultAllow bool
	// RefreshAhead, when positive, starts a background re-verification
	// whenever a cache hit lands within this window of the entry's
	// expiration (§3.2 frames expiration as "access rights expire ... unless
	// refreshed by a manager"; proactive refresh keeps continuously used
	// rights from paying a manager round trip at every expiry). The bound is
	// unaffected: the refreshed entry still expires te after its own query
	// round, and a revoked right simply fails to refresh.
	RefreshAhead time.Duration
}

// SecurityFirst returns a policy for confidential applications (§2.3): a
// check quorum of C, expiration-bounded revocation, and denial when
// managers cannot be reached.
func SecurityFirst(c int, te time.Duration) Policy {
	return Policy{CheckQuorum: c, Te: te, MaxAttempts: 3}
}

// AvailabilityFirst returns a policy for services where user satisfaction
// dominates (§2.3's on-line magazines): single confirmation suffices and
// after r failed attempts access is allowed by default (Figure 4).
func AvailabilityFirst(r int, te time.Duration) Policy {
	return Policy{CheckQuorum: 1, Te: te, MaxAttempts: r, DefaultAllow: true}
}

// Balanced returns the paper's recommended middle ground: C near M/2 so
// both PA and PS stay near 1 (§4.1, Figure 5).
func Balanced(m int, te time.Duration) Policy {
	c := m / 2
	if c < 1 {
		c = 1
	}
	return Policy{CheckQuorum: c, Te: te, MaxAttempts: 3}
}

func (p Policy) withDefaults() Policy {
	if p.ClockBound == 0 {
		p.ClockBound = 1
	}
	if p.QueryTimeout == 0 {
		p.QueryTimeout = DefaultQueryTimeout
	}
	return p
}

// validate checks p against m managers and returns their quorum system.
func (p Policy) validate(m int) (quorum.System, error) {
	sys, err := quorum.New(m, p.CheckQuorum)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %w", ErrConfig, err)
	case p.Te < 0:
		err = fmt.Errorf("%w: negative Te", ErrConfig)
	case p.ClockBound < 0 || p.ClockBound > 1:
		err = fmt.Errorf("%w: clock bound %v outside (0,1]", ErrConfig, p.ClockBound)
	case p.MaxAttempts < 0:
		err = fmt.Errorf("%w: negative MaxAttempts", ErrConfig)
	case p.DefaultAllow && p.MaxAttempts == 0:
		err = fmt.Errorf("%w: DefaultAllow requires finite MaxAttempts", ErrConfig)
	case p.RefreshAhead < 0:
		err = fmt.Errorf("%w: negative RefreshAhead", ErrConfig)
	case p.RefreshAhead > 0 && p.Te > 0 && p.RefreshAhead >= p.Te:
		err = fmt.Errorf("%w: RefreshAhead (%v) must be below Te (%v)", ErrConfig, p.RefreshAhead, p.Te)
	}
	return sys, err
}

// HostAppConfig wires one application into a host node.
type HostAppConfig struct {
	// Managers is Managers(A): the fixed manager set known to the host
	// (§3.1). Leave empty to resolve via NameService.
	Managers []wire.NodeID
	// NameService, when set, is queried for the manager set instead of (or
	// after the TTL of) the static list (§3.2).
	NameService wire.NodeID
	// Policy is the application's security/availability tradeoff.
	Policy Policy
	// App is the wrapped application served to authorized users. Nil is
	// allowed for hosts that only answer Check calls.
	App Application
}

// ManagerAppConfig wires one application into a manager node.
type ManagerAppConfig struct {
	// Peers is Managers(A) including this node.
	Peers []wire.NodeID
	// CheckQuorum is the application's C, which fixes the update quorum
	// M-C+1 (§3.3).
	CheckQuorum int
	// Te is the revocation bound; grants carry expiration period te = Te*b.
	// Zero selects the basic protocol (grants never expire).
	Te time.Duration
	// ClockBound is b, as in Policy.
	ClockBound float64
	// UpdateRetry is the retransmission interval for persistent update
	// dissemination.
	UpdateRetry time.Duration
	// MaxUpdateRetries caps retransmission rounds (0 = persist forever, the
	// paper's strategy).
	MaxUpdateRetries int
	// FreezeTi enables the freeze strategy (§3.3) when positive: if any
	// peer has been unreachable for longer than Ti, freeze all rights until
	// every peer is reachable again. Ti + te must be at most Te.
	FreezeTi time.Duration
	// HeartbeatEvery is the peer probe interval used with FreezeTi.
	HeartbeatEvery time.Duration
	// SyncRetry is the recovering manager's sync request interval.
	SyncRetry time.Duration
	// Overload configures admission control: token-bucket rate limits on
	// query traffic and the adaptive-Te controller. The zero value disables
	// all of it (every query is admitted, Te is static).
	Overload OverloadConfig
}

// RateLimitConfig bounds query admission at a manager with token buckets.
// Rates are tokens (queries) per second; bursts are bucket capacities. A
// zero rate disables that bucket.
type RateLimitConfig struct {
	// AppRPS and AppBurst bound the application's aggregate query rate
	// across all hosts.
	AppRPS   float64
	AppBurst float64
	// HostRPS and HostBurst bound each individual source host, so one
	// aggressive host cannot consume the whole application budget.
	HostRPS   float64
	HostBurst float64
}

// AdaptiveTeConfig widens the effective revocation bound Te under sustained
// query overload: longer grants mean longer cache residency on hosts, which
// directly cuts re-verification traffic — the paper's O(C/Te) overhead knob
// (§4.1) turned automatically. The widened bound never exceeds Max, so
// deployments state their worst-case revocation latency up front; when the
// shedding stops, Te decays back to the configured base. Each interval
// with any shed query doubles the effective Te; each quiet one halves it.
type AdaptiveTeConfig struct {
	// Max caps the effective Te. Zero disables the controller. Must be at
	// least the configured Te.
	Max time.Duration
	// Interval is the controller's evaluation period. Zero means 1s.
	Interval time.Duration
}

// DefaultMaxRetryAfter clamps the Retry-After advertised in Busy replies so
// a miscomputed refill wait cannot park hosts for hours.
const DefaultMaxRetryAfter = 5 * time.Second

// OverloadConfig is a manager's complete overload-protection configuration.
type OverloadConfig struct {
	// RateLimit bounds query admission; queries over budget are answered
	// with wire.Busy instead of being served.
	RateLimit RateLimitConfig
	// AdaptiveTe widens the effective Te while the rate limiter is
	// shedding.
	AdaptiveTe AdaptiveTeConfig
	// MaxRetryAfter clamps the Retry-After carried in Busy replies. Zero
	// means DefaultMaxRetryAfter.
	MaxRetryAfter time.Duration
}

func (o OverloadConfig) validate() error {
	r := o.RateLimit
	if r.AppRPS < 0 || r.AppBurst < 0 || r.HostRPS < 0 || r.HostBurst < 0 {
		return fmt.Errorf("%w: negative rate limit", ErrConfig)
	}
	if r.AppRPS > 0 && r.AppBurst < 1 {
		return fmt.Errorf("%w: app rate limit needs burst >= 1", ErrConfig)
	}
	if r.HostRPS > 0 && r.HostBurst < 1 {
		return fmt.Errorf("%w: host rate limit needs burst >= 1", ErrConfig)
	}
	a := o.AdaptiveTe
	if a.Max < 0 || a.Interval < 0 {
		return fmt.Errorf("%w: negative adaptive-Te parameter", ErrConfig)
	}
	if o.MaxRetryAfter < 0 {
		return fmt.Errorf("%w: negative MaxRetryAfter", ErrConfig)
	}
	return nil
}

func (c ManagerAppConfig) withDefaults() ManagerAppConfig {
	if c.ClockBound == 0 {
		c.ClockBound = 1
	}
	if c.UpdateRetry == 0 {
		c.UpdateRetry = DefaultUpdateRetry
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.SyncRetry == 0 {
		c.SyncRetry = DefaultSyncRetry
	}
	return c
}

// validate checks c for manager self and returns its quorum system.
func (c ManagerAppConfig) validate(self wire.NodeID) (quorum.System, error) {
	sys, err := quorum.New(len(c.Peers), c.CheckQuorum)
	overload, max := c.Overload.validate(), c.Overload.AdaptiveTe.Max
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %w", ErrConfig, err)
	case !slices.Contains(c.Peers, self):
		err = fmt.Errorf("%w: peer set must include the manager itself (%s)", ErrConfig, self)
	case c.Te < 0 || c.FreezeTi < 0:
		err = fmt.Errorf("%w: negative time bound", ErrConfig)
	case c.ClockBound < 0 || c.ClockBound > 1:
		err = fmt.Errorf("%w: clock bound %v outside (0,1]", ErrConfig, c.ClockBound)
	case c.FreezeTi > 0 && c.Te > 0 && c.FreezeTi >= c.Te:
		// te is derived as (Te-Ti)*b, so Ti must leave room for a positive
		// expiration period (§3.3 requires Ti + te <= Te).
		err = fmt.Errorf("%w: Ti(%v) must be smaller than Te(%v)", ErrConfig, c.FreezeTi, c.Te)
	case overload != nil:
		err = overload
	case max > 0 && c.Te == 0:
		err = fmt.Errorf("%w: adaptive Te requires a base Te", ErrConfig)
	case max > 0 && max < c.Te:
		err = fmt.Errorf("%w: adaptive-Te Max (%v) below base Te (%v)", ErrConfig, max, c.Te)
	}
	return sys, err
}

// Decision is the outcome of an access check.
type Decision struct {
	// Allowed reports whether access was granted.
	Allowed bool
	// DefaultAllowed is set when access was granted by the
	// high-availability rule (Figure 4) rather than by manager
	// confirmation.
	DefaultAllowed bool
	// CacheHit is set when the decision came from a fresh cached entry.
	CacheHit bool
	// Confirmations is the number of distinct managers that vouched for the
	// grant in the deciding round (0 on a cache hit or denial).
	Confirmations int
	// Attempts is the number of query rounds used (0 on a cache hit).
	Attempts int
	// Frozen reports that at least one manager declined to answer because
	// of the freeze strategy.
	Frozen bool
}
