package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleMessages() []Message {
	issued := time.Date(2000, 1, 2, 3, 4, 5, 6, time.UTC)
	return []Message{
		Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42, Trace: 41},
		Query{}, // zero values must survive too
		Response{App: "stocks", User: "alice", Right: RightUse, Nonce: 42, Granted: true, Expire: 5 * time.Minute, Trace: 41},
		Response{App: "a", User: "u", Right: RightManage, Frozen: true},
		RevokeNotice{App: "stocks", User: "mallory", Right: RightUse, Seq: UpdateSeq{Origin: "m1", Counter: 7}},
		RevokeAck{App: "stocks", User: "mallory", Seq: UpdateSeq{Origin: "m1", Counter: 7}},
		Update{Seq: UpdateSeq{Origin: "m2", Counter: 9}, Op: OpAdd, App: "news", User: "bob", Right: RightUse, Issued: issued},
		Update{Seq: UpdateSeq{Origin: "m2", Counter: 10}, Op: OpRevoke, App: "news", User: "bob", Right: RightUse},
		UpdateAck{Seq: UpdateSeq{Origin: "m2", Counter: 9}},
		SyncRequest{App: "news"},
		SyncRequest{},
		SyncResponse{
			App:     "a",
			Entries: []ACLEntry{{App: "a", User: "u1", Right: RightUse}, {App: "a", User: "u2", Right: RightManage}},
			Applied: map[NodeID]uint64{"m1": 3, "m2": 11},
		},
		SyncResponse{},
		Heartbeat{Nonce: 1},
		HeartbeatAck{Nonce: 1},
		Invoke{App: "stocks", User: "alice", ReqID: 5, Payload: []byte("GET /quote/ACME")},
		Invoke{App: "stocks", User: "alice", ReqID: 6},
		InvokeReply{App: "stocks", ReqID: 5, Allowed: true, Output: []byte("42.17")},
		InvokeReply{App: "stocks", ReqID: 6},
		AdminOp{Op: OpAdd, App: "stocks", User: "carol", Right: RightUse, Issuer: "root", ReqID: 3},
		AdminOp{Op: OpAdd, App: "stocks", User: "dora", Right: RightUse, Issuer: "root", ReqID: 4, ValidFor: 48 * time.Hour},
		AdminReply{ReqID: 3, Accepted: true, QuorumReached: true},
		AdminReply{ReqID: 4, Err: "not a manager"},
		ResolveRequest{App: "stocks", Nonce: 8},
		ResolveResponse{App: "stocks", Nonce: 8, Managers: []NodeID{"m1", "m2", "m3"}, TTL: time.Hour},
		ResolveResponse{App: "stocks", Nonce: 9},
		Sealed{User: "alice", Frame: []byte{1, 2, 3}, Sig: []byte{9, 8}},
		Sealed{User: "alice"},
		Gossip{Ops: []Update{
			{Seq: UpdateSeq{Origin: "m1", Counter: 1}, Op: OpAdd, App: "a", User: "u", Right: RightUse, Issued: issued},
			{Seq: UpdateSeq{Origin: "m2", Counter: 4}, Op: OpRevoke, App: "a", User: "v", Right: RightManage},
		}},
		Gossip{},
		Busy{App: "stocks", Nonce: 42, RetryAfter: 250 * time.Millisecond, Trace: 41},
		Busy{},
		Batch{Msgs: []Message{
			Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42, Trace: 41},
			Response{App: "stocks", User: "alice", Right: RightUse, Nonce: 42, Granted: true, Trace: 41},
			Update{Seq: UpdateSeq{Origin: "m2", Counter: 9}, Op: OpAdd, App: "news", User: "bob", Right: RightUse, Issued: issued},
			Sealed{User: "alice", Frame: []byte{1, 2, 3}, Sig: []byte{9, 8}},
		}},
		Batch{Msgs: []Message{Heartbeat{Nonce: 1}}},
		Batch{},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", msg, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("roundtrip %s:\n got  %#v\n want %#v", msg.Kind(), got, msg)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := Unmarshal(data[:cut]); err == nil {
				// A shorter prefix can only be valid if it happens to be a
				// complete frame of the same type with shorter payloads —
				// impossible here because every field is length-prefixed,
				// so any strict prefix must fail.
				t.Errorf("%s: Unmarshal of %d/%d byte prefix succeeded", msg.Kind(), cut, len(data))
			}
		}
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	data, err := Marshal(Heartbeat{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0xFF)); err == nil {
		t.Error("Unmarshal accepted trailing bytes")
	}
}

func TestUnmarshalUnknownTag(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("err = %v, want ErrUnknownTag", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	nested := Batch{Msgs: []Message{Batch{Msgs: []Message{Heartbeat{Nonce: 1}}}}}
	if _, err := Marshal(nested); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("Marshal(nested batch) err = %v, want ErrNestedBatch", err)
	}
	if _, err := BatchSize(nested.Msgs); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("BatchSize(nested batch) err = %v, want ErrNestedBatch", err)
	}
	// Hand-craft the bytes a malicious peer would send: a batch whose single
	// sub-message is itself a batch. The decoder must refuse it.
	inner, err := Marshal(Batch{Msgs: []Message{Heartbeat{Nonce: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte{tagBatch, 1}, inner...)
	if _, err := Unmarshal(raw); !errors.Is(err, ErrNestedBatch) {
		t.Errorf("Unmarshal(nested batch bytes) err = %v, want ErrNestedBatch", err)
	}
}

func TestAppendBatchMatchesMarshal(t *testing.T) {
	msgs := []Message{
		Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42},
		Heartbeat{Nonce: 7},
	}
	direct, err := AppendBatch(nil, msgs)
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := Marshal(Batch{Msgs: msgs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, boxed) {
		t.Errorf("AppendBatch bytes differ from Marshal(Batch):\n got  %v\n want %v", direct, boxed)
	}
	n, err := BatchSize(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(direct) {
		t.Errorf("BatchSize = %d, want %d", n, len(direct))
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := Marshal(unsupportedMsg{}); err == nil {
		t.Error("Marshal accepted an unregistered message type")
	}
}

type unsupportedMsg struct{}

func (unsupportedMsg) Kind() string { return "unsupported" }

// TestQueryRoundTripQuick property-tests the hot-path pair with random field
// values, including adversarial strings with NULs and high code points.
func TestQueryRoundTripQuick(t *testing.T) {
	f := func(app, user string, right uint8, nonce, tr uint64) bool {
		q := Query{App: AppID(app), User: UserID(user), Right: Right(right), Nonce: nonce, Trace: tr}
		data, err := Marshal(q)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		return err == nil && got == Message(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTripQuick(t *testing.T) {
	f := func(app, user string, nonce uint64, granted, frozen bool, expire int64, tr uint64) bool {
		r := Response{
			App: AppID(app), User: UserID(user), Right: RightUse, Nonce: nonce,
			Granted: granted, Frozen: frozen, Expire: time.Duration(expire), Trace: tr,
		}
		data, err := Marshal(r)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		return err == nil && got == Message(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalRandomGarbage feeds random bytes to Unmarshal: it must never
// panic and must either error or return a well-formed message.
func TestUnmarshalRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		msg, err := Unmarshal(buf)
		if err == nil && msg == nil {
			t.Fatal("nil message with nil error")
		}
	}
}

func TestRightString(t *testing.T) {
	cases := []struct {
		r    Right
		want string
	}{
		{RightUse, "use"},
		{RightManage, "manage"},
		{Right(0), "invalid"},
		{Right(9), "invalid"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Right(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
	if !RightUse.Valid() || !RightManage.Valid() || Right(0).Valid() || Right(3).Valid() {
		t.Error("Right.Valid misclassifies")
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpRevoke.String() != "revoke" || Op(0).String() != "invalid" {
		t.Error("Op.String misclassifies")
	}
}

func TestKinds(t *testing.T) {
	seen := map[string]bool{}
	for _, msg := range sampleMessages() {
		k := msg.Kind()
		if k == "" {
			t.Errorf("%T has empty kind", msg)
		}
		seen[k] = true
	}
	if len(seen) != 20 {
		t.Errorf("expected 20 distinct kinds, got %d", len(seen))
	}
}

func BenchmarkBinaryMarshalQuery(b *testing.B) {
	q := Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryUnmarshalQuery(b *testing.B) {
	data, err := Marshal(Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
