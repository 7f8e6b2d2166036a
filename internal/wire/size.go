package wire

import (
	"fmt"
	"math"
	"time"
)

// Size returns the exact length of the frame Marshal would produce for msg,
// without encoding anything. netcore sizes each outbound message with it
// once, to reserve its frame and to drop what cannot be sent, without
// paying a Marshal (and its buffer allocation) per message. Size walks the
// same field layout as AppendMarshal and allocates nothing;
// TestSizeMatchesMarshal pins the two against each other for every message
// kind so they cannot drift apart.
func Size(msg Message) (int, error) {
	switch m := msg.(type) {
	case Query:
		return 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			1 + uvarintSize(m.Nonce) + uvarintSize(m.Trace), nil
	case Response:
		return 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			1 + uvarintSize(m.Nonce) + 2 + durationSize(m.Expire) +
			uvarintSize(m.Trace), nil
	case RevokeNotice:
		return 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			1 + seqSize(m.Seq), nil
	case RevokeAck:
		return 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			seqSize(m.Seq), nil
	case Update:
		return 1 + updateSize(m), nil
	case UpdateAck:
		return 1 + seqSize(m.Seq), nil
	case SyncRequest:
		return 1 + stringSize(string(m.App)), nil
	case SyncResponse:
		n := 1 + stringSize(string(m.App)) + uvarintSize(uint64(len(m.Entries)))
		for _, ent := range m.Entries {
			n += stringSize(string(ent.App)) + stringSize(string(ent.User)) + 1
		}
		n += uvarintSize(uint64(len(m.Applied)))
		for origin, counter := range m.Applied {
			n += stringSize(string(origin)) + uvarintSize(counter)
		}
		n += uvarintSize(uint64(len(m.Ops)))
		for _, op := range m.Ops {
			n += updateSize(op)
		}
		return n, nil
	case Heartbeat:
		return 1 + uvarintSize(m.Nonce), nil
	case HeartbeatAck:
		return 1 + uvarintSize(m.Nonce), nil
	case Invoke:
		return 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			uvarintSize(m.ReqID) + bytesSize(m.Payload), nil
	case InvokeReply:
		return 1 + stringSize(string(m.App)) + uvarintSize(m.ReqID) +
			1 + bytesSize(m.Output), nil
	case AdminOp:
		return 1 + 1 + stringSize(string(m.App)) + stringSize(string(m.User)) +
			1 + stringSize(string(m.Issuer)) + uvarintSize(m.ReqID) +
			durationSize(m.ValidFor), nil
	case AdminReply:
		return 1 + uvarintSize(m.ReqID) + 2 + stringSize(m.Err), nil
	case ResolveRequest:
		return 1 + stringSize(string(m.App)) + uvarintSize(m.Nonce), nil
	case ResolveResponse:
		n := 1 + stringSize(string(m.App)) + uvarintSize(m.Nonce) +
			uvarintSize(uint64(len(m.Managers)))
		for _, id := range m.Managers {
			n += stringSize(string(id))
		}
		return n + durationSize(m.TTL), nil
	case Gossip:
		n := 1 + uvarintSize(uint64(len(m.Ops)))
		for _, op := range m.Ops {
			n += updateSize(op)
		}
		return n, nil
	case Sealed:
		return 1 + stringSize(string(m.User)) + bytesSize(m.Frame) +
			bytesSize(m.Sig), nil
	case Busy:
		return 1 + stringSize(string(m.App)) + uvarintSize(m.Nonce) +
			durationSize(m.RetryAfter) + uvarintSize(m.Trace), nil
	case Batch:
		return BatchSize(m.Msgs)
	default:
		return 0, fmt.Errorf("wire: cannot size %T", msg)
	}
}

// BatchSize returns the exact frame length of a Batch holding msgs, without
// boxing a Batch value (see AppendBatch). Size uses it for a Batch; the
// transport writer instead sums the sizes it took at enqueue.
func BatchSize(msgs []Message) (int, error) {
	n := 1 + uvarintSize(uint64(len(msgs)))
	for _, sub := range msgs {
		if _, ok := sub.(Batch); ok {
			return 0, ErrNestedBatch
		}
		sn, err := Size(sub)
		if err != nil {
			return 0, err
		}
		n += sn
	}
	return n, nil
}

// updateSize is the body of an Update (shared with the embedded op lists of
// SyncResponse and Gossip, which encode the same field layout minus the tag).
func updateSize(u Update) int {
	return seqSize(u.Seq) + 1 + stringSize(string(u.App)) +
		stringSize(string(u.User)) + 1 + timeSize(u.Issued)
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintSize mirrors binary.AppendVarint's zigzag encoding.
func varintSize(v int64) int {
	return uvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func bytesSize(b []byte) int { return uvarintSize(uint64(len(b))) + len(b) }

func durationSize(d time.Duration) int { return varintSize(int64(d)) }

func timeSize(t time.Time) int {
	if t.IsZero() {
		return varintSize(math.MinInt64)
	}
	return varintSize(t.UnixNano())
}

func seqSize(s UpdateSeq) int {
	return stringSize(string(s.Origin)) + uvarintSize(s.Counter)
}
