package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshal drives the binary decoder with arbitrary inputs. The seed
// corpus covers every message type; run `go test -fuzz FuzzUnmarshal` for an
// extended session. Invariants: never panic; any frame that decodes must
// re-encode to an equivalent message (decode∘encode∘decode fixpoint); a
// Decoder's intern table changes nothing about what is decoded; Unmarshal's
// message never aliases the buffer it was decoded from; and a Decoder's
// aliases it only in a Response's User, which it lends — transports read
// every frame of a connection into the same buffer, so overwriting the input
// must change a lent User and nothing else.
func FuzzUnmarshal(f *testing.F) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	var dc Decoder // one table across inputs, as across the frames of a connection
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := bytes.Clone(data)
		msg, err := Unmarshal(buf)
		interned, ierr := dc.Unmarshal(buf)
		if (err == nil) != (ierr == nil) || !reflect.DeepEqual(msg, interned) {
			t.Fatalf("Decoder disagrees with Unmarshal:\n  %#v (%v)\n  %#v (%v)", msg, err, interned, ierr)
		}
		if err != nil {
			return
		}
		re, err := Marshal(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %#v: %v", msg, err)
		}
		msg2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("decode/encode not a fixpoint:\n  %#v\n  %#v", msg, msg2)
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
		for _, m := range []Message{msg, lentBack(t, interned, msg)} {
			if again, err := Marshal(m); err != nil || !bytes.Equal(again, re) {
				t.Fatalf("message changed when its input buffer was overwritten (err %v):\n  %x\n  %x", err, re, again)
			}
		}
	})
}

// lentBack returns got, a Decoder's message from a buffer since overwritten,
// with each Response's User put back from want, Unmarshal's copy of the same
// frame. A non-empty User that did not change with the buffer was not lent.
func lentBack(t *testing.T, got, want Message) Message {
	switch g := got.(type) {
	case Response:
		w := want.(Response)
		if w.User != "" && g.User == w.User {
			t.Fatalf("Response.User %q did not change with its input buffer: not lent", w.User)
		}
		g.User = w.User
		return g
	case Batch:
		msgs := make([]Message, len(g.Msgs))
		for i, m := range g.Msgs {
			msgs[i] = lentBack(t, m, want.(Batch).Msgs[i])
		}
		return Batch{Msgs: msgs}
	}
	return got
}

// FuzzSealedRoundTrip checks that any Sealed value — the authenticated
// wrapper carrying arbitrary inner frames and signatures (§2.1) — survives
// a Marshal/Unmarshal round trip bit-exactly. Sealed is the one message
// whose payload is attacker-influenced bytes, so the codec must not
// normalize, truncate or alias the frame and signature. Seed corpus lives
// in testdata/fuzz/FuzzSealedRoundTrip.
func FuzzSealedRoundTrip(f *testing.F) {
	f.Add("admin", []byte("inner-frame"), []byte("sig-bytes"))
	f.Add("", []byte{}, []byte{})
	f.Add("u\x00user", []byte{0xFF, 0x00, 0x80}, []byte{0x01})

	f.Fuzz(func(t *testing.T, user string, frame, sig []byte) {
		in := Sealed{User: UserID(user), Frame: frame, Sig: sig}
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("Sealed failed to encode: %#v: %v", in, err)
		}
		msg, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("encoded Sealed failed to decode: %v", err)
		}
		out, ok := msg.(Sealed)
		if !ok {
			t.Fatalf("round trip changed type: %#v", msg)
		}
		if string(out.User) != user || !bytes.Equal(out.Frame, frame) || !bytes.Equal(out.Sig, sig) {
			t.Fatalf("round trip not identity:\n  in  %#v\n  out %#v", in, out)
		}
	})
}

// FuzzAdminReplyRoundTrip checks AdminReply — the quorum acknowledgment
// whose two flags start the Te guarantee clock (§3.3) — for codec identity
// across arbitrary request ids, flag combinations and error strings. Seed
// corpus lives in testdata/fuzz/FuzzAdminReplyRoundTrip.
func FuzzAdminReplyRoundTrip(f *testing.F) {
	f.Add(uint64(0), false, false, "")
	f.Add(uint64(42), true, true, "")
	f.Add(^uint64(0), true, false, "no quorum: 2 of 3 peers unreachable")

	f.Fuzz(func(t *testing.T, reqID uint64, accepted, quorum bool, errStr string) {
		in := AdminReply{ReqID: reqID, Accepted: accepted, QuorumReached: quorum, Err: errStr}
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("AdminReply failed to encode: %#v: %v", in, err)
		}
		msg, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("encoded AdminReply failed to decode: %v", err)
		}
		out, ok := msg.(AdminReply)
		if !ok {
			t.Fatalf("round trip changed type: %#v", msg)
		}
		if out != in {
			t.Fatalf("round trip not identity:\n  in  %#v\n  out %#v", in, out)
		}
	})
}
