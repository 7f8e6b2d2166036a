// Package wire defines the protocol messages exchanged by the wide-area
// access control system: host-to-manager right checks, manager-to-host
// grants and revocation forwards, manager-to-manager update dissemination
// and state sync, accessibility heartbeats, name service resolution, and
// user application traffic.
//
// Messages travel as Go values inside the in-process simulator and are
// encoded with the codecs in codec.go when crossing a real transport.
package wire

import "time"

// NodeID identifies a protocol participant (application host, manager host,
// user agent, or name server). IDs are opaque strings; the TCP transport
// maps them to addresses, the simulator uses them directly.
type NodeID string

// AppID names a distributed application whose access is being controlled.
type AppID string

// UserID uniquely identifies a user (§2.1). The authentication substrate
// guarantees a message claiming to come from a UserID was sent by it.
type UserID string

// Right is an access right on an application. The paper restricts the model
// to two rights: use and manage (§2.1).
type Right uint8

// The two rights of the paper's model.
const (
	RightUse Right = iota + 1
	RightManage
)

// String returns "use" or "manage".
func (r Right) String() string {
	switch r {
	case RightUse:
		return "use"
	case RightManage:
		return "manage"
	default:
		return "invalid"
	}
}

// Valid reports whether r is one of the defined rights.
func (r Right) Valid() bool { return r == RightUse || r == RightManage }

// Op is the kind of access-control update a manager issues.
type Op uint8

// Update operations (§2.3).
const (
	OpAdd Op = iota + 1
	OpRevoke
)

// String returns "add" or "revoke".
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRevoke:
		return "revoke"
	default:
		return "invalid"
	}
}

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns a short stable name used for tracing and metrics.
	Kind() string
}

// Query asks a manager whether User holds Right on App (§3.1, Figure 2).
// Nonce correlates the eventual Response with the query round that sent it;
// responses arriving after the round's timer fired are discarded (§3.2).
// Trace is the check-wide correlation ID: every query round of one access
// check carries the same Trace (the first round's nonce), and managers echo
// it, so the flight events and audit records either side leaves under it
// reconstruct the full check lifecycle (cmd/acaudit). Every check sets it,
// whatever the node records; it carries no protocol meaning.
type Query struct {
	App   AppID
	User  UserID
	Right Right
	Nonce uint64
	Trace uint64
}

// Kind implements Message.
func (Query) Kind() string { return "query" }

// Response answers a Query. When Granted is true the entry carries the
// expiration period te the host must apply to its cached copy (§3.2);
// Expire is zero in the basic protocol. Frozen indicates the manager is in
// the freeze state (§3.3) and declines to answer; the host treats it like
// no response for quorum counting but may stop retrying that manager early.
type Response struct {
	App     AppID
	User    UserID
	Right   Right
	Nonce   uint64
	Granted bool
	Frozen  bool
	Expire  time.Duration
	// Trace echoes Query.Trace for telemetry correlation; no protocol
	// meaning.
	Trace uint64
}

// Kind implements Message.
func (Response) Kind() string { return "response" }

// RevokeNotice is forwarded by a manager to every host it has granted
// (App,User) to, instructing the host to flush the cached entry (§3.1).
type RevokeNotice struct {
	App   AppID
	User  UserID
	Right Right
	// Seq identifies the originating update so hosts can acknowledge and
	// managers can stop retransmitting (§3.4: resend until expiry).
	Seq UpdateSeq
}

// Kind implements Message.
func (RevokeNotice) Kind() string { return "revoke-notice" }

// RevokeAck acknowledges a RevokeNotice so the manager stops resending.
type RevokeAck struct {
	App  AppID
	User UserID
	Seq  UpdateSeq
}

// Kind implements Message.
func (RevokeAck) Kind() string { return "revoke-ack" }

// UpdateSeq totally orders updates issued by one manager: (Origin, Counter).
type UpdateSeq struct {
	Origin  NodeID
	Counter uint64
}

// Update disseminates an access-control operation between managers (§3.1,
// §3.3). The issuing manager retransmits persistently until every peer
// acknowledges; the operation is guaranteed once an update quorum of
// M-C+1 managers (including the origin) has acknowledged.
type Update struct {
	Seq   UpdateSeq
	Op    Op
	App   AppID
	User  UserID
	Right Right
	// Issued is the origin's local issue time, carried for tracing and for
	// eventual-consistency baselines that order by timestamp.
	Issued time.Time
}

// Kind implements Message.
func (Update) Kind() string { return "update" }

// UpdateAck acknowledges receipt and application of an Update.
type UpdateAck struct {
	Seq UpdateSeq
}

// Kind implements Message.
func (UpdateAck) Kind() string { return "update-ack" }

// SyncRequest asks a peer manager for its full ACL state; sent by a
// recovering manager before it resumes answering queries (§3.4).
type SyncRequest struct {
	App AppID // zero value means all applications
}

// Kind implements Message.
func (SyncRequest) Kind() string { return "sync-request" }

// ACLEntry is one (app, user, right) grant in a sync transfer.
type ACLEntry struct {
	App   AppID
	User  UserID
	Right Right
}

// SyncResponse transfers one application's ACL state plus the per-origin
// update counters the sender has applied for that application, so the
// receiver can discard stale retransmissions.
type SyncResponse struct {
	App     AppID
	Entries []ACLEntry
	Applied map[NodeID]uint64
	// Ops is the latest applied operation per (user, right) key, so the
	// recovering manager inherits the last-writer-wins frontier and cannot
	// be regressed by stale retransmissions arriving after the sync.
	Ops []Update
}

// Kind implements Message.
func (SyncResponse) Kind() string { return "sync-response" }

// Heartbeat probes manager-to-manager accessibility for the freeze strategy
// (§3.3): a manager unreachable for longer than Ti forces rights frozen.
type Heartbeat struct {
	Nonce uint64
}

// Kind implements Message.
func (Heartbeat) Kind() string { return "heartbeat" }

// HeartbeatAck answers a Heartbeat.
type HeartbeatAck struct {
	Nonce uint64
}

// Kind implements Message.
func (HeartbeatAck) Kind() string { return "heartbeat-ack" }

// Invoke is a user's application message arriving at a host (§2.3). The
// access control wrapper forwards Payload to the application only if User
// holds the use right on App.
type Invoke struct {
	App     AppID
	User    UserID
	ReqID   uint64
	Payload []byte
}

// Kind implements Message.
func (Invoke) Kind() string { return "invoke" }

// InvokeReply reports the access decision (and application output, if
// allowed) back to the user agent.
type InvokeReply struct {
	App     AppID
	ReqID   uint64
	Allowed bool
	Output  []byte
}

// Kind implements Message.
func (InvokeReply) Kind() string { return "invoke-reply" }

// AdminOp is a manager user's command to change access rights (§2.3:
// Add(A,U,R) / Revoke(A,U,R)). It must be signed by a user holding the
// manage right on App.
type AdminOp struct {
	Op    Op
	App   AppID
	User  UserID
	Right Right
	// Issuer is the managing user issuing the command.
	Issuer UserID
	ReqID  uint64
	// ValidFor, when positive on an Add, makes the grant a temporal
	// authorization (§4.2, Bertino et al.): the issuing manager
	// automatically issues the matching Revoke after this period. Zero
	// means a permanent grant.
	ValidFor time.Duration
}

// Kind implements Message.
func (AdminOp) Kind() string { return "admin-op" }

// AdminReply reports whether the operation was accepted and, once known,
// whether the update quorum has been reached (the point at which the Te
// guarantee starts, §3.3).
type AdminReply struct {
	ReqID         uint64
	Accepted      bool
	QuorumReached bool
	Err           string
}

// Kind implements Message.
func (AdminReply) Kind() string { return "admin-reply" }

// ResolveRequest asks the trusted name service for the manager set of App
// (§3.2: the fixed-managers assumption is lifted via a name service).
type ResolveRequest struct {
	App   AppID
	Nonce uint64
}

// Kind implements Message.
func (ResolveRequest) Kind() string { return "resolve-request" }

// ResolveResponse returns the manager set and a TTL after which the host
// must re-query (the paper's time-based re-query of the manager set).
type ResolveResponse struct {
	App      AppID
	Nonce    uint64
	Managers []NodeID
	TTL      time.Duration
}

// Kind implements Message.
func (ResolveResponse) Kind() string { return "resolve-response" }

// Gossip carries a compacted operation log (the latest operation per
// (app,user,right) key) for the eventual-consistency baseline (§4.2,
// Samarati et al.): replicas merge gossip by last-writer-wins on the
// Issued timestamp.
type Gossip struct {
	Ops []Update
}

// Kind implements Message.
func (Gossip) Kind() string { return "gossip" }

// Busy is a manager's explicit load-shed reply to a Query (admission
// control): the manager's rate limiter rejected the query before any store
// work was done. Nonce echoes the query's nonce so the host can correlate
// the reply with its pending check round; RetryAfter is the manager's
// advice on how long the host should wait before offering new load (hosts
// add jitter). A Busy carries no grant information — the host treats it
// like a non-answer for quorum counting, but unlike silence it arrives
// immediately and tells the host to back off instead of retrying blind.
type Busy struct {
	App   AppID
	Nonce uint64
	// RetryAfter is the manager's backoff advice.
	RetryAfter time.Duration
	// Trace echoes Query.Trace for telemetry correlation; no protocol
	// meaning.
	Trace uint64
}

// Kind implements Message.
func (Busy) Kind() string { return "busy" }

// Lane classifies messages into transport priority classes. The per-peer
// outbound queues keep one lane per class and drain LaneHigh first, so a
// flood of bulk checks can never starve the revocation/update machinery —
// the one message class whose delay violates the paper's Te bound.
type Lane uint8

const (
	// LaneBulk is the default class: queries, responses, application
	// traffic, resolution, and shed (Busy) replies. Bounded by QueueDepth;
	// overflow drops oldest.
	LaneBulk Lane = iota
	// LaneHigh is the protected class: revocation forwards and acks, update
	// dissemination and acks, admin operations, sync, and heartbeats.
	// Bounded by LaneDepth; drained before any bulk traffic.
	LaneHigh
)

// String returns "bulk" or "high".
func (l Lane) String() string {
	if l == LaneHigh {
		return "high"
	}
	return "bulk"
}

// LaneOf returns the transport priority class for a message. Revocation,
// update, admin, sync, and accessibility traffic rides the high lane;
// everything else — including Busy replies, whose volume under shedding is
// proportional to the overload itself — stays in the bulk lane. A pointer to
// one of the kinds nodes lend (see simnet.Network.Lend) rides its value's
// lane.
func LaneOf(msg Message) Lane {
	switch msg.(type) {
	case RevokeNotice, RevokeAck, Update, UpdateAck,
		AdminOp, AdminReply, SyncRequest, SyncResponse,
		Heartbeat, HeartbeatAck,
		*RevokeNotice, *RevokeAck, *Update, *UpdateAck:
		return LaneHigh
	default:
		return LaneBulk
	}
}

// Batch carries multiple protocol messages to the same destination in one
// frame. The transport writer coalesces same-peer messages queued in the
// same flush into a Batch so a quorum fan-out pays one frame header, one
// sender id, and one socket write instead of one per message; receivers
// unwrap it and dispatch the inner messages in order. Batches never nest.
// Batch is a transport optimization with no protocol meaning: protocol
// nodes neither send nor receive it directly.
type Batch struct {
	Msgs []Message
}

// Kind implements Message.
func (Batch) Kind() string { return "batch" }

// Sealed wraps an authenticated message: Frame is the binary encoding of
// the inner message (wire.Marshal) and Sig is the sender's signature over
// it. The access-control layer requires user-originated traffic (Invoke,
// AdminOp) to be sealed so that "a message sent by user U has indeed been
// sent by this user" (§2.1); the auth package produces and verifies seals.
type Sealed struct {
	User  UserID
	Frame []byte
	Sig   []byte
}

// Kind implements Message.
func (Sealed) Kind() string { return "sealed" }

// Envelope wraps a message with routing metadata for transports that carry
// frames between processes.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  Message
}
