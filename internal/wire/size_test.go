package wire

import (
	"strings"
	"testing"
	"time"
)

// edgeMessages stresses the varint boundaries and zero/extreme field values
// that the size accounting must agree on with the encoder.
func edgeMessages() []Message {
	long := strings.Repeat("x", 300) // forces a 2-byte length prefix
	return []Message{
		Query{App: AppID(long), User: UserID(long), Nonce: ^uint64(0)},
		Query{Nonce: 127},
		Query{Nonce: 128},
		Response{Expire: -time.Hour},
		Response{Expire: time.Duration(1<<62 - 1)},
		Update{Issued: time.Unix(0, -1)},
		Update{}, // zero Issued takes the MinInt64 sentinel path
		AdminOp{ValidFor: -1},
		Invoke{Payload: make([]byte, 1<<14)},
		Sealed{Frame: make([]byte, 127), Sig: make([]byte, 128)},
		SyncResponse{Applied: map[NodeID]uint64{"": 0, "m": 1 << 40}},
	}
}

func TestSizeMatchesMarshal(t *testing.T) {
	msgs := append(sampleMessages(), edgeMessages()...)
	for _, m := range msgs {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: marshal: %v", m, err)
		}
		n, err := Size(m)
		if err != nil {
			t.Fatalf("%T: size: %v", m, err)
		}
		if n != len(frame) {
			t.Errorf("%T: Size=%d, len(Marshal)=%d", m, n, len(frame))
		}
	}
}

func TestSizeUnsupported(t *testing.T) {
	if _, err := Size(unsupportedMsg{}); err == nil {
		t.Fatal("Size accepted an unsupported message type")
	}
}

func TestAppendMarshalReusesBuffer(t *testing.T) {
	q := Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42}
	buf := make([]byte, 0, 128)
	out, err := AppendMarshal(buf, q)
	if err != nil {
		t.Fatal(err)
	}
	if &out[:1][0] != &buf[:1][0] {
		t.Error("AppendMarshal did not append into the provided buffer")
	}
	// A second frame appends after the first.
	out2, err := AppendMarshal(out, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 2*len(out) {
		t.Errorf("expected two frames back to back, len=%d vs %d", len(out2), len(out))
	}
	if _, err := AppendMarshal(nil, unsupportedMsg{}); err == nil {
		t.Error("AppendMarshal accepted an unsupported message type")
	}
}

// TestSizeAllocationBudget pins Size to zero allocations: netcore sizes
// every outbound message with it, so any regression here puts garbage on
// each send.
func TestSizeAllocationBudget(t *testing.T) {
	msgs := []Message{
		Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42},
		Response{App: "stocks", User: "alice", Right: RightUse, Nonce: 42, Granted: true, Expire: 5 * time.Minute},
		Update{Seq: UpdateSeq{Origin: "m2", Counter: 9}, Op: OpAdd, App: "news", User: "bob", Right: RightUse, Issued: time.Unix(3, 0)},
	}
	for _, m := range msgs {
		m := m
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Size(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%T: Size allocates %.1f objects/op, budget is 0", m, allocs)
		}
	}
}

func BenchmarkWireSizeQuery(b *testing.B) {
	q := Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Size(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMarshalQuery(b *testing.B) {
	q := Query{App: "stocks", User: "alice", Right: RightUse, Nonce: 42}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendMarshal(buf[:0], q); err != nil {
			b.Fatal(err)
		}
	}
}
