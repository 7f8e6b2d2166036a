package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"
)

// Compact binary codec. Frames are self-describing: a one-byte type tag
// followed by the message fields in declaration order. Integers use uvarint,
// strings and byte slices are length-prefixed, durations are encoded as
// varint nanoseconds, and times as Unix nanoseconds.

// Message type tags. These are part of the wire format: never reorder.
const (
	tagQuery byte = iota + 1
	tagResponse
	tagRevokeNotice
	tagRevokeAck
	tagUpdate
	tagUpdateAck
	tagSyncRequest
	tagSyncResponse
	tagHeartbeat
	tagHeartbeatAck
	tagInvoke
	tagInvokeReply
	tagAdminOp
	tagAdminReply
	tagResolveRequest
	tagResolveResponse
	tagSealed
	tagGossip
	tagBatch
	tagBusy
)

// ErrTruncated reports a frame that ended before all fields were read.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrUnknownTag reports a frame whose type tag is not recognized.
var ErrUnknownTag = errors.New("wire: unknown message tag")

// ErrNestedBatch reports a Batch carrying another Batch. Batches are flat
// by construction (the writer coalesces one queue drain); allowing nesting
// would turn a 1 MiB frame into an exponential decode bomb.
var ErrNestedBatch = errors.New("wire: nested batch")

type encoder struct{ buf []byte }

func (e *encoder) byte(b byte)     { e.buf = append(e.buf, b) }
func (e *encoder) uint(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int64)     { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bool(v bool)     { e.buf = append(e.buf, boolByte(v)) }
func (e *encoder) string(s string) { e.uint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) bytes(b []byte)  { e.uint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) duration(d time.Duration) {
	e.int(int64(d))
}
func (e *encoder) time(t time.Time) {
	if t.IsZero() {
		e.int(math.MinInt64)
		return
	}
	e.int(t.UnixNano())
}
func (e *encoder) seq(s UpdateSeq) {
	e.string(string(s.Origin))
	e.uint(s.Counter)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

type decoder struct {
	buf []byte
	err error
	dc  *Decoder // nil for the package-level Unmarshal, which copies everything
}

// Decoder decodes the frames of one connection. A node talks about a
// handful of applications, so the Decoder keeps the last few application
// ids it decoded and hands the same string back when a frame names one
// again, instead of allocating it per message.
//
// A Response's User is lent, not copied: it is a view of the frame, valid
// until the frame's bytes are reused — in a transport, until the handler's
// HandleMessage returns. The host that reads it only compares it with the
// key of the round it sent (§3.2), so a reply to a stale or forged round
// costs no copy. Every other string and byte slice is a copy. The zero value
// is ready; not safe for concurrent use.
type Decoder struct {
	apps [4]AppID
	next uint8
	msgs []Message  // Messages' result, reused by its next call
	one  [1]Message // msgs' first backing array: a plain frame allocates none
}

// app decodes a length-prefixed application id, through the intern table
// when the frame is being decoded by a Decoder.
func (d *decoder) app() AppID {
	b := d.raw()
	t := d.dc
	if t == nil {
		return AppID(b)
	}
	for _, id := range t.apps {
		if string(b) == string(id) {
			return id
		}
	}
	id := AppID(b)
	t.apps[t.next%uint8(len(t.apps))] = id
	t.next++
	return id
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bool() bool { return d.byte() == 1 }

// raw consumes a length-prefixed field and returns its bytes, which still
// alias the frame: callers copy them out.
func (d *decoder) raw() []byte {
	n := d.uint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.raw()) }

// lent decodes a length-prefixed string as a view of the frame when the
// frame is being decoded by a Decoder, and as a copy otherwise. Only a
// Response's User is decoded this way (see Decoder).
func (d *decoder) lent() string {
	b := d.raw()
	if d.dc == nil {
		return string(b)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (d *decoder) bytes() []byte {
	b := d.raw()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decoder) duration() time.Duration { return time.Duration(d.int()) }

func (d *decoder) time() time.Time {
	v := d.int()
	if v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

func (d *decoder) seq() UpdateSeq {
	return UpdateSeq{Origin: NodeID(d.string()), Counter: d.uint()}
}

// Marshal encodes a message with the compact binary codec.
func Marshal(msg Message) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, 64), msg)
}

// AppendMarshal encodes a message with the compact binary codec, appending
// the frame to buf and returning the extended slice. Callers on hot paths
// (the simulated network's byte accounting, transport write loops) pass a
// reused buffer to avoid a fresh allocation per message; on error buf is
// returned unchanged except for possibly extended capacity.
func AppendMarshal(buf []byte, msg Message) ([]byte, error) {
	e := &encoder{buf: buf}
	switch m := msg.(type) {
	case Query:
		e.byte(tagQuery)
		e.string(string(m.App))
		e.string(string(m.User))
		e.byte(byte(m.Right))
		e.uint(m.Nonce)
		e.uint(m.Trace)
	case Response:
		e.byte(tagResponse)
		e.string(string(m.App))
		e.string(string(m.User))
		e.byte(byte(m.Right))
		e.uint(m.Nonce)
		e.bool(m.Granted)
		e.bool(m.Frozen)
		e.duration(m.Expire)
		e.uint(m.Trace)
	case RevokeNotice:
		e.byte(tagRevokeNotice)
		e.string(string(m.App))
		e.string(string(m.User))
		e.byte(byte(m.Right))
		e.seq(m.Seq)
	case RevokeAck:
		e.byte(tagRevokeAck)
		e.string(string(m.App))
		e.string(string(m.User))
		e.seq(m.Seq)
	case Update:
		e.byte(tagUpdate)
		e.seq(m.Seq)
		e.byte(byte(m.Op))
		e.string(string(m.App))
		e.string(string(m.User))
		e.byte(byte(m.Right))
		e.time(m.Issued)
	case UpdateAck:
		e.byte(tagUpdateAck)
		e.seq(m.Seq)
	case SyncRequest:
		e.byte(tagSyncRequest)
		e.string(string(m.App))
	case SyncResponse:
		e.byte(tagSyncResponse)
		e.string(string(m.App))
		e.uint(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			e.string(string(ent.App))
			e.string(string(ent.User))
			e.byte(byte(ent.Right))
		}
		e.uint(uint64(len(m.Applied)))
		for _, origin := range sortedOrigins(m.Applied) {
			e.string(string(origin))
			e.uint(m.Applied[origin])
		}
		e.uint(uint64(len(m.Ops)))
		for _, op := range m.Ops {
			e.seq(op.Seq)
			e.byte(byte(op.Op))
			e.string(string(op.App))
			e.string(string(op.User))
			e.byte(byte(op.Right))
			e.time(op.Issued)
		}
	case Heartbeat:
		e.byte(tagHeartbeat)
		e.uint(m.Nonce)
	case HeartbeatAck:
		e.byte(tagHeartbeatAck)
		e.uint(m.Nonce)
	case Invoke:
		e.byte(tagInvoke)
		e.string(string(m.App))
		e.string(string(m.User))
		e.uint(m.ReqID)
		e.bytes(m.Payload)
	case InvokeReply:
		e.byte(tagInvokeReply)
		e.string(string(m.App))
		e.uint(m.ReqID)
		e.bool(m.Allowed)
		e.bytes(m.Output)
	case AdminOp:
		e.byte(tagAdminOp)
		e.byte(byte(m.Op))
		e.string(string(m.App))
		e.string(string(m.User))
		e.byte(byte(m.Right))
		e.string(string(m.Issuer))
		e.uint(m.ReqID)
		e.duration(m.ValidFor)
	case AdminReply:
		e.byte(tagAdminReply)
		e.uint(m.ReqID)
		e.bool(m.Accepted)
		e.bool(m.QuorumReached)
		e.string(m.Err)
	case ResolveRequest:
		e.byte(tagResolveRequest)
		e.string(string(m.App))
		e.uint(m.Nonce)
	case ResolveResponse:
		e.byte(tagResolveResponse)
		e.string(string(m.App))
		e.uint(m.Nonce)
		e.uint(uint64(len(m.Managers)))
		for _, id := range m.Managers {
			e.string(string(id))
		}
		e.duration(m.TTL)
	case Gossip:
		e.byte(tagGossip)
		e.uint(uint64(len(m.Ops)))
		for _, op := range m.Ops {
			e.seq(op.Seq)
			e.byte(byte(op.Op))
			e.string(string(op.App))
			e.string(string(op.User))
			e.byte(byte(op.Right))
			e.time(op.Issued)
		}
	case Sealed:
		e.byte(tagSealed)
		e.string(string(m.User))
		e.bytes(m.Frame)
		e.bytes(m.Sig)
	case Busy:
		e.byte(tagBusy)
		e.string(string(m.App))
		e.uint(m.Nonce)
		e.duration(m.RetryAfter)
		e.uint(m.Trace)
	case Batch:
		return AppendBatch(buf, m.Msgs)
	default:
		return buf, fmt.Errorf("wire: cannot marshal %T", msg)
	}
	return e.buf, nil
}

// AppendBatch encodes a Batch frame holding msgs, appending to buf. It is
// equivalent to AppendMarshal(buf, Batch{Msgs: msgs}) but takes the slice
// directly so the transport writer, which coalesces queued messages every
// flush, does not box a fresh Batch value into the Message interface (an
// allocation) per flush. Sub-messages are encoded inline, back to back —
// each is self-delimiting, so no per-message length prefix is needed.
// A sub-message that is itself a Batch fails with ErrNestedBatch.
func AppendBatch(buf []byte, msgs []Message) ([]byte, error) {
	e := &encoder{buf: buf}
	e.byte(tagBatch)
	e.uint(uint64(len(msgs)))
	for _, sub := range msgs {
		if _, ok := sub.(Batch); ok {
			return buf, ErrNestedBatch
		}
		b, err := AppendMarshal(e.buf, sub)
		if err != nil {
			return buf, err
		}
		e.buf = b
	}
	return e.buf, nil
}

// Unmarshal decodes a frame produced by Marshal. The message never aliases
// data: every string and byte slice in it is a copy, a Response's User too.
func Unmarshal(data []byte) (Message, error) {
	return (*Decoder)(nil).Unmarshal(data)
}

// Unmarshal is the package-level Unmarshal through dc's intern table. With
// a non-nil dc a Response's User is lent from data (see Decoder).
func (dc *Decoder) Unmarshal(data []byte) (Message, error) {
	msg, msgs, err := dc.frame(data, nil)
	if err == nil && msg == nil {
		return Batch{Msgs: msgs}, nil
	}
	return msg, err
}

// Messages decodes a frame into the messages it carries, in order: a
// Batch's, or a plain frame's one. The slice is dc's until its next call;
// the messages in it are the caller's, but a Response's User is lent from
// data (see Decoder).
func (dc *Decoder) Messages(data []byte) ([]Message, error) {
	if dc.msgs == nil {
		dc.msgs = dc.one[:0]
	}
	msg, msgs, err := dc.frame(data, dc.msgs[:0])
	if msg != nil {
		msgs = append(msgs, msg)
	}
	dc.msgs = msgs // nil after an error: the next call starts again from one
	return msgs, err
}

// frame decodes one frame: a plain message, or a Batch's messages appended
// to msgs (and a nil message).
func (dc *Decoder) frame(data []byte, msgs []Message) (Message, []Message, error) {
	d := &decoder{buf: data, dc: dc}
	tag := d.byte()
	if d.err != nil {
		return nil, nil, d.err
	}
	var msg Message
	var err error
	if tag == tagBatch {
		msgs, err = d.batch(msgs)
	} else {
		msg, err = decodeMessage(d, tag)
	}
	if err != nil {
		return nil, nil, err
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if len(d.buf) != 0 {
		kind := Batch{}.Kind()
		if msg != nil {
			kind = msg.Kind()
		}
		return nil, nil, fmt.Errorf("wire: %d trailing bytes after %s", len(d.buf), kind)
	}
	return msg, msgs, nil
}

// batch appends to msgs the sub-messages of a Batch whose tag byte has been
// consumed.
func (d *decoder) batch(msgs []Message) ([]Message, error) {
	n := d.uint()
	if n > uint64(len(d.buf)) { // each sub-message is at least one tag byte
		return nil, ErrTruncated
	}
	msgs = slices.Grow(msgs, int(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		sub := d.byte()
		if d.err != nil {
			break
		}
		if sub == tagBatch {
			return nil, ErrNestedBatch
		}
		m, err := decodeMessage(d, sub)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// decodeMessage decodes the body of one message, not a Batch, whose tag
// byte has already been consumed. Sub-messages of a Batch decode through the same switch;
// they are self-delimiting, so the decoder stops exactly at the next
// sub-message's tag.
func decodeMessage(d *decoder, tag byte) (Message, error) {
	var msg Message
	switch tag {
	case tagQuery:
		msg = Query{
			App:   d.app(),
			User:  UserID(d.string()),
			Right: Right(d.byte()),
			Nonce: d.uint(),
			Trace: d.uint(),
		}
	case tagResponse:
		msg = Response{
			App:     d.app(),
			User:    UserID(d.lent()),
			Right:   Right(d.byte()),
			Nonce:   d.uint(),
			Granted: d.bool(),
			Frozen:  d.bool(),
			Expire:  d.duration(),
			Trace:   d.uint(),
		}
	case tagRevokeNotice:
		msg = RevokeNotice{
			App:   d.app(),
			User:  UserID(d.string()),
			Right: Right(d.byte()),
			Seq:   d.seq(),
		}
	case tagRevokeAck:
		msg = RevokeAck{
			App:  d.app(),
			User: UserID(d.string()),
			Seq:  d.seq(),
		}
	case tagUpdate:
		msg = Update{
			Seq:    d.seq(),
			Op:     Op(d.byte()),
			App:    d.app(),
			User:   UserID(d.string()),
			Right:  Right(d.byte()),
			Issued: d.time(),
		}
	case tagUpdateAck:
		msg = UpdateAck{Seq: d.seq()}
	case tagSyncRequest:
		msg = SyncRequest{App: d.app()}
	case tagSyncResponse:
		app := d.app()
		n := d.uint()
		if n > uint64(len(d.buf)) { // each entry is at least 3 bytes; cheap bound
			return nil, ErrTruncated
		}
		resp := SyncResponse{App: app}
		if n > 0 {
			resp.Entries = make([]ACLEntry, 0, n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			resp.Entries = append(resp.Entries, ACLEntry{
				App:   d.app(),
				User:  UserID(d.string()),
				Right: Right(d.byte()),
			})
		}
		an := d.uint()
		if an > uint64(len(d.buf)) { // each pair is at least 2 bytes; bounds the map below
			return nil, ErrTruncated
		}
		if an > 0 && d.err == nil {
			resp.Applied = make(map[NodeID]uint64, an)
			for i := uint64(0); i < an && d.err == nil; i++ {
				origin := NodeID(d.string())
				resp.Applied[origin] = d.uint()
			}
		}
		on := d.uint()
		if on > uint64(len(d.buf))+1 {
			return nil, ErrTruncated
		}
		for i := uint64(0); i < on && d.err == nil; i++ {
			resp.Ops = append(resp.Ops, Update{
				Seq:    d.seq(),
				Op:     Op(d.byte()),
				App:    d.app(),
				User:   UserID(d.string()),
				Right:  Right(d.byte()),
				Issued: d.time(),
			})
		}
		msg = resp
	case tagHeartbeat:
		msg = Heartbeat{Nonce: d.uint()}
	case tagHeartbeatAck:
		msg = HeartbeatAck{Nonce: d.uint()}
	case tagInvoke:
		msg = Invoke{
			App:     d.app(),
			User:    UserID(d.string()),
			ReqID:   d.uint(),
			Payload: d.bytes(),
		}
	case tagInvokeReply:
		msg = InvokeReply{
			App:     d.app(),
			ReqID:   d.uint(),
			Allowed: d.bool(),
			Output:  d.bytes(),
		}
	case tagAdminOp:
		msg = AdminOp{
			Op:       Op(d.byte()),
			App:      d.app(),
			User:     UserID(d.string()),
			Right:    Right(d.byte()),
			Issuer:   UserID(d.string()),
			ReqID:    d.uint(),
			ValidFor: d.duration(),
		}
	case tagAdminReply:
		msg = AdminReply{
			ReqID:         d.uint(),
			Accepted:      d.bool(),
			QuorumReached: d.bool(),
			Err:           d.string(),
		}
	case tagResolveRequest:
		msg = ResolveRequest{App: d.app(), Nonce: d.uint()}
	case tagResolveResponse:
		resp := ResolveResponse{App: d.app(), Nonce: d.uint()}
		n := d.uint()
		if n > uint64(len(d.buf))+1 {
			return nil, ErrTruncated
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			resp.Managers = append(resp.Managers, NodeID(d.string()))
		}
		resp.TTL = d.duration()
		msg = resp
	case tagGossip:
		n := d.uint()
		if n > uint64(len(d.buf))+1 {
			return nil, ErrTruncated
		}
		g := Gossip{}
		for i := uint64(0); i < n && d.err == nil; i++ {
			g.Ops = append(g.Ops, Update{
				Seq:    d.seq(),
				Op:     Op(d.byte()),
				App:    d.app(),
				User:   UserID(d.string()),
				Right:  Right(d.byte()),
				Issued: d.time(),
			})
		}
		msg = g
	case tagSealed:
		msg = Sealed{
			User:  UserID(d.string()),
			Frame: d.bytes(),
			Sig:   d.bytes(),
		}
	case tagBusy:
		msg = Busy{
			App:        d.app(),
			Nonce:      d.uint(),
			RetryAfter: d.duration(),
			Trace:      d.uint(),
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	return msg, nil
}

func sortedOrigins(m map[NodeID]uint64) []NodeID {
	out := make([]NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	// Insertion sort: maps are tiny (one entry per manager) and this keeps
	// the encoding deterministic without importing sort for a hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
