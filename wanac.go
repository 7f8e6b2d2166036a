// Package wanac is a from-scratch implementation of the wide-area access
// control protocol of Hiltunen & Schlichting, "Access Control in Wide-Area
// Networks" (ICDCS 1997).
//
// The protocol keeps authoritative access control lists at a small set of
// manager nodes, caches grants at application hosts with time-based
// expiration (revocation is guaranteed within a bound Te even across
// network partitions), and uses check/update quorums so each application
// can tune its own point on the security/availability/performance tradeoff
// via four parameters: the number of managers M, the check quorum C, the
// expiration bound Te, and the attempt count R.
//
// This package is the public facade. Three ways in:
//
//   - Simulation: NewSimulation builds a complete deployment (managers,
//     hosts, users, partitions) on a deterministic virtual-time network —
//     see examples/quickstart.
//   - Live deployment: Listen("tcp"|"udp", ...) creates a production
//     transport node — per-peer send queues, reconnect with backoff, stats —
//     whose Env drives the same Host/Manager state machines over real
//     sockets — see cmd/acnode.
//   - Analysis: PA, PS, Curve, and BestC evaluate the §4.1 formulas for
//     parameter planning.
package wanac

import (
	"fmt"
	"time"

	"wanac/internal/auth"
	"wanac/internal/core"
	"wanac/internal/netcore"
	"wanac/internal/quorum"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/tcpnet"
	"wanac/internal/trace"
	"wanac/internal/udpnet"
	"wanac/internal/vclock"
	"wanac/internal/wire"
)

// Identifier and message types.
type (
	// NodeID identifies a protocol participant.
	NodeID = wire.NodeID
	// AppID names an application under access control.
	AppID = wire.AppID
	// UserID identifies an authenticated user.
	UserID = wire.UserID
	// Right is an access right: RightUse or RightManage.
	Right = wire.Right
	// AdminOp is an Add/Revoke command (§2.3).
	AdminOp = wire.AdminOp
	// AdminReply reports acceptance and update-quorum progress.
	AdminReply = wire.AdminReply
)

// The two rights of the paper's model (§2.1).
const (
	RightUse    = wire.RightUse
	RightManage = wire.RightManage
)

// Admin operations.
const (
	OpAdd    = wire.OpAdd
	OpRevoke = wire.OpRevoke
)

// Core protocol types.
type (
	// Host is the application-host node (Figures 2-4).
	Host = core.Host
	// Manager is the manager node (§3.1, §3.3-3.4).
	Manager = core.Manager
	// Policy is a host-side tradeoff configuration.
	Policy = core.Policy
	// HostAppConfig wires an application into a host.
	HostAppConfig = core.HostAppConfig
	// ManagerAppConfig wires an application into a manager.
	ManagerAppConfig = core.ManagerAppConfig
	// Decision is the outcome of an access check.
	Decision = core.Decision
	// Env abstracts clock, transport, and timers for a node.
	Env = core.Env
	// Application is the wrapped application component (Figure 1).
	Application = core.Application
	// ApplicationFunc adapts a function to Application.
	ApplicationFunc = core.ApplicationFunc
	// Tracer receives protocol events.
	Tracer = trace.Tracer
	// Keyring maps users to signature verifiers.
	Keyring = auth.Keyring
)

// Policy presets (§2.3, §4.1).
var (
	// SecurityFirst denies when the check quorum is unreachable.
	SecurityFirst = core.SecurityFirst
	// AvailabilityFirst allows by default after R failed attempts
	// (Figure 4).
	AvailabilityFirst = core.AvailabilityFirst
	// Balanced picks C near M/2 so PA and PS both stay near 1.
	Balanced = core.Balanced
)

// NewHost creates an application-host node. tracer and keyring may be nil.
func NewHost(id NodeID, env Env, tracer Tracer, keyring *Keyring) *Host {
	return core.NewHost(id, env, tracer, keyring)
}

// NewManager creates a manager node. tracer and keyring may be nil.
func NewManager(id NodeID, env Env, tracer Tracer, keyring *Keyring) *Manager {
	return core.NewManager(id, env, tracer, keyring)
}

// NewKeyring returns an empty signature keyring.
func NewKeyring() *Keyring { return auth.NewKeyring() }

// Simulation types.
type (
	// Simulation is a fully wired virtual-time deployment.
	Simulation = sim.World
	// SimConfig describes the deployment to build.
	SimConfig = sim.Config
	// NetConfig parameterizes the simulated network.
	NetConfig = simnet.Config
)

// NewSimulation builds a simulated deployment: M managers with seeded ACLs,
// hosts enforcing the policy, an optional name service, all on a
// deterministic discrete-event network. Virtual time advances only through
// the returned world's Run/CheckSync helpers, so hours of protocol time
// simulate in milliseconds.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.Build(cfg) }

// SimManagerID and SimHostID name the nodes a Simulation creates.
var (
	SimManagerID = sim.ManagerID
	SimHostID    = sim.HostID
)

// Live transport facade.

// Transport is a live network endpoint for a protocol node. It implements
// Env (pass it to NewHost or NewManager) and adds the operational surface
// the transports share: an address book, a handler registration, a stats
// snapshot, and shutdown. Both *TCPNode and *UDPNode satisfy it.
//
// Sends never block the caller: each peer has a bounded outbound queue
// drained by its own writer goroutine, dead peers are redialed with
// jittered exponential backoff, and overflow drops the oldest frame
// (counted in Stats) — the protocol's retry machinery provides liveness,
// per the paper's unreliable-network model (§2.2).
type Transport interface {
	Env
	// ID returns the node id frames are stamped with.
	ID() NodeID
	// Addr returns the bound listen address.
	Addr() string
	// AddPeer registers (or re-points) the address for a peer id.
	AddPeer(id NodeID, addr string) error
	// SetHandler installs the protocol node receiving inbound messages.
	SetHandler(h TransportHandler)
	// Stats returns a snapshot of the transport's counters and health.
	Stats() TransportStats
	// Close drains outbound queues and shuts the node down.
	Close() error
}

type (
	// TransportHandler receives inbound messages (a Host or Manager). A
	// Response's User is valid only until HandleMessage returns: it is a
	// view of the frame the transport decoded it from.
	TransportHandler = netcore.Handler
	// TransportStats is a snapshot of transport counters, queue depth, and
	// peer health.
	TransportStats = netcore.TransportStats
)

// Overload-protection configuration (manager-side admission control).
type (
	// OverloadConfig is a manager application's complete overload-protection
	// configuration: token-bucket admission, the adaptive-Te controller, and
	// the Retry-After clamp. Set it on ManagerAppConfig.Overload, or build
	// it from options with NewOverloadConfig.
	OverloadConfig = core.OverloadConfig
	// RateLimitConfig bounds query admission with token buckets, per
	// application and per source host.
	RateLimitConfig = core.RateLimitConfig
	// AdaptiveTeConfig widens the effective Te under sustained overload, up
	// to a stated Max — the paper's O(C/Te) overhead knob (§4.1) turned
	// automatically.
	AdaptiveTeConfig = core.AdaptiveTeConfig
)

// Option tunes a wanac node. One option set covers both layers of the
// stack: transport options shape the endpoint a Listen call creates
// (queues, batching, reconnect, stats), and admission options shape the
// OverloadConfig that NewOverloadConfig folds for a manager application.
// Options that do not apply to the consumer are inert — a single []Option
// can describe a whole node and be handed to both constructors.
type Option func(*settings)

type settings struct {
	transport []netcore.Option
	overload  OverloadConfig
}

func buildSettings(opts []Option) *settings {
	s := &settings{}
	for _, o := range opts {
		o(s)
	}
	return s
}

func transportOpt(o netcore.Option) Option {
	return func(s *settings) { s.transport = append(s.transport, o) }
}

// WithQueueDepth bounds each peer's outbound bulk-lane queue (default 128
// frames); overflow drops the oldest frame.
func WithQueueDepth(n int) Option { return transportOpt(netcore.WithQueueDepth(n)) }

// WithLaneDepth bounds each peer's outbound high-priority lane (revocations,
// updates, admin, heartbeats — defaults to the queue depth). The high lane
// is drained before the bulk lane and overflows only into itself, so a bulk
// query flood can never evict control traffic.
func WithLaneDepth(n int) Option { return transportOpt(netcore.WithLaneDepth(n)) }

// WithMaxBatch bounds how many queued messages one writer flush coalesces
// into a single wire write (default 64). Batching is opportunistic — a
// flush takes whatever is queued at that instant and never waits for more,
// so it adds no latency; under load, same-peer messages share one frame
// header and one write syscall. 1 disables coalescing.
func WithMaxBatch(n int) Option { return transportOpt(netcore.WithMaxBatch(n)) }

// WithBackoff sets the reconnect backoff range: delays double from min to
// max with jitter (defaults 50ms to 3s).
func WithBackoff(min, max time.Duration) Option {
	return transportOpt(netcore.WithBackoff(min, max))
}

// WithDialTimeout bounds each connection attempt (default 1s).
func WithDialTimeout(d time.Duration) Option { return transportOpt(netcore.WithDialTimeout(d)) }

// WithPeerStateSink invokes fn on every peer health transition with the new
// state name ("connecting", "up", "backoff"). acnode feeds these into its
// flight recorder so transport flaps appear on failure timelines; the
// callback must be fast and must not call back into the transport.
func WithPeerStateSink(fn func(peer NodeID, state string)) Option {
	return transportOpt(netcore.WithStateSink(func(peer NodeID, state netcore.State) {
		fn(peer, state.String())
	}))
}

// WithRateLimit bounds query admission at a manager with token buckets (per
// application and per source host). Queries over budget are answered with a
// Busy reply carrying Retry-After; hosts defer the round and retry with
// jittered backoff instead of hammering. Consumed by NewOverloadConfig.
func WithRateLimit(rl RateLimitConfig) Option {
	return func(s *settings) { s.overload.RateLimit = rl }
}

// WithAdaptiveTe enables the adaptive-Te controller: while the rate limiter
// sheds, the effective Te widens (longer grants, longer host cache
// residency, less re-verification traffic) up to at.Max, then decays back
// once the overload clears. at.Max is the revocation bound the deployment
// actually promises. Consumed by NewOverloadConfig.
func WithAdaptiveTe(at AdaptiveTeConfig) Option {
	return func(s *settings) { s.overload.AdaptiveTe = at }
}

// WithMaxRetryAfter clamps the Retry-After advertised in Busy replies
// (default 5s). Consumed by NewOverloadConfig.
func WithMaxRetryAfter(d time.Duration) Option {
	return func(s *settings) { s.overload.MaxRetryAfter = d }
}

// NewOverloadConfig folds the admission-control options (WithRateLimit,
// WithAdaptiveTe, WithMaxRetryAfter) into an OverloadConfig for
// ManagerAppConfig.Overload. Transport options in opts are inert here.
func NewOverloadConfig(opts ...Option) OverloadConfig {
	return buildSettings(opts).overload
}

// Listen starts a live transport node on network "tcp" or "udp". TCP gives
// ordered streams with reconnect; UDP is the most literal realization of
// the paper's network model — nothing below the protocol retransmits.
// Admission options in opts are inert here (see NewOverloadConfig).
func Listen(network string, id NodeID, addr string, opts ...Option) (Transport, error) {
	cfg := netcore.BuildConfig(buildSettings(opts).transport...)
	switch network {
	case "tcp":
		return tcpnet.ListenConfig(id, addr, cfg)
	case "udp":
		return udpnet.ListenConfig(id, addr, cfg)
	default:
		return nil, fmt.Errorf("wanac: unknown network %q (want \"tcp\" or \"udp\")", network)
	}
}

// TCPNode is a live TCP transport endpoint implementing Env.
type TCPNode = tcpnet.Node

// UDPNode is a live UDP transport endpoint implementing Env — the most
// literal realization of the paper's unreliable network model (§2.2):
// nothing below the protocol retransmits.
type UDPNode = udpnet.Node

// Analysis re-exports (§4.1).

// PA returns the availability probability PA(C) for M managers with
// per-pair inaccessibility pi.
func PA(m, c int, pi float64) (float64, error) { return quorum.PA(m, c, pi) }

// PS returns the security probability PS(C).
func PS(m, c int, pi float64) (float64, error) { return quorum.PS(m, c, pi) }

// TradeoffPoint is one (C, PA, PS) point of the Figure 5 curve.
type TradeoffPoint = quorum.Point

// Curve evaluates PA and PS for every C in [1, M] (Figure 5).
func Curve(m int, pi float64) ([]TradeoffPoint, error) { return quorum.Curve(m, pi) }

// BestC returns the check quorum maximizing min(PA, PS).
func BestC(m int, pi float64) (TradeoffPoint, error) { return quorum.BestC(m, pi) }

// UpdateQuorum returns M-C+1, the update quorum implied by check quorum C.
func UpdateQuorum(m, c int) int { return quorum.UpdateQuorum(m, c) }

// Planning types (§4.1's deployment guidance).
type (
	// PlanTargets are availability/security goals for PlanParams.
	PlanTargets = quorum.Targets
	// Plan is a recommended (M, C) configuration.
	Plan = quorum.Plan
)

// PlanParams finds the smallest manager set and cheapest check quorum that
// meet the targets, growing M when needed (§4.1: "increase the cardinality
// of this set").
func PlanParams(t PlanTargets) (Plan, error) { return quorum.PlanParams(t) }

// ExpirationPeriod converts the revocation bound Te into the local cache
// expiration period te = Te*b under clock-rate bound b (§3.2).
func ExpirationPeriod(te time.Duration, b float64) time.Duration {
	return vclock.ExpirationPeriod(te, b)
}
