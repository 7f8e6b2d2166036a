package auth

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"wanac/internal/wire"
)

func newEdSigner(t *testing.T) *Ed25519Signer {
	t.Helper()
	s, err := GenerateEd25519(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEd25519SignVerify(t *testing.T) {
	s := newEdSigner(t)
	data := []byte("hello wide area")
	sig, err := s.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	if !v.Verify(data, sig) {
		t.Error("valid signature rejected")
	}
	if v.Verify([]byte("tampered"), sig) {
		t.Error("signature verified over different data")
	}
	sig[0] ^= 0xFF
	if v.Verify(data, sig) {
		t.Error("corrupted signature accepted")
	}
	if v.Verify(data, nil) {
		t.Error("nil signature accepted")
	}
}

func TestEd25519CrossKeyRejected(t *testing.T) {
	s1, s2 := newEdSigner(t), newEdSigner(t)
	data := []byte("payload")
	sig, err := s1.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Verifier().Verify(data, sig) {
		t.Error("signature from another key accepted")
	}
}

func TestKeyring(t *testing.T) {
	k := NewKeyring()
	s := newEdSigner(t)
	if err := k.Register("alice", s.Verifier()); err != nil {
		t.Fatal(err)
	}
	if err := k.Register("alice", s.Verifier()); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register err = %v", err)
	}
	if k.Len() != 1 {
		t.Errorf("Len() = %d", k.Len())
	}
	if _, ok := k.Lookup("alice"); !ok {
		t.Error("Lookup failed for registered user")
	}
	if _, ok := k.Lookup("bob"); ok {
		t.Error("Lookup succeeded for unknown user")
	}

	data := []byte("x")
	sig, _ := s.Sign(data)
	if err := k.Verify("alice", data, sig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if err := k.Verify("bob", data, sig); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user err = %v", err)
	}
	if err := k.Verify("alice", []byte("y"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("bad signature err = %v", err)
	}

}

func TestSealOpen(t *testing.T) {
	s := newEdSigner(t)
	k := NewKeyring()
	if err := k.Register("alice", s.Verifier()); err != nil {
		t.Fatal(err)
	}

	msg := wire.Invoke{App: "stocks", User: "alice", ReqID: 1, Payload: []byte("GET")}
	sealed, err := Seal("alice", s, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, sealed)
	if err != nil {
		t.Fatal(err)
	}
	inv, ok := got.(wire.Invoke)
	if !ok || inv.User != "alice" || string(inv.Payload) != "GET" {
		t.Errorf("opened %#v", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s := newEdSigner(t)
	k := NewKeyring()
	if err := k.Register("alice", s.Verifier()); err != nil {
		t.Fatal(err)
	}
	sealed, err := Seal("alice", s, wire.Invoke{App: "stocks", User: "alice"})
	if err != nil {
		t.Fatal(err)
	}

	tampered := sealed
	tampered.Frame = append([]byte(nil), sealed.Frame...)
	tampered.Frame[0] ^= 0x01
	if _, err := Open(k, tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered frame err = %v", err)
	}

	unknown := sealed
	unknown.User = "mallory"
	if _, err := Open(k, unknown); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown sealer err = %v", err)
	}
}

func TestVerifyClaimIdentityBinding(t *testing.T) {
	alice := newEdSigner(t)
	k := NewKeyring()
	if err := k.Register("alice", alice.Verifier()); err != nil {
		t.Fatal(err)
	}

	// Alice seals an Invoke claiming to be bob: must be rejected even though
	// the signature itself is valid.
	sealed, err := Seal("alice", alice, wire.Invoke{App: "stocks", User: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaim(k, sealed); !errors.Is(err, ErrBadSignature) {
		t.Errorf("identity mismatch err = %v", err)
	}

	// Same for AdminOp issuer spoofing.
	sealedOp, err := Seal("alice", alice, wire.AdminOp{Op: wire.OpAdd, App: "stocks", User: "x", Right: wire.RightUse, Issuer: "root"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaim(k, sealedOp); !errors.Is(err, ErrBadSignature) {
		t.Errorf("issuer mismatch err = %v", err)
	}

	// Honest claims pass.
	honest, err := Seal("alice", alice, wire.Invoke{App: "stocks", User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaim(k, honest); err != nil {
		t.Errorf("honest claim rejected: %v", err)
	}

	// Non-user messages pass through without claim checks.
	hb, err := Seal("alice", alice, wire.Heartbeat{Nonce: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyClaim(k, hb); err != nil {
		t.Errorf("heartbeat claim rejected: %v", err)
	}
}

func TestSealRoundTripQuick(t *testing.T) {
	s := newEdSigner(t)
	k := NewKeyring()
	if err := k.Register("u", s.Verifier()); err != nil {
		t.Fatal(err)
	}
	f := func(payload []byte, reqID uint64) bool {
		msg := wire.Invoke{App: "a", User: "u", ReqID: reqID, Payload: payload}
		sealed, err := Seal("u", s, msg)
		if err != nil {
			return false
		}
		got, err := VerifyClaim(k, sealed)
		if err != nil {
			return false
		}
		inv, ok := got.(wire.Invoke)
		return ok && inv.ReqID == reqID && string(inv.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSealEd25519(b *testing.B) {
	s, err := GenerateEd25519(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := wire.Invoke{App: "stocks", User: "alice", Payload: []byte("GET /quote")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Seal("alice", s, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenEd25519(b *testing.B) {
	s, err := GenerateEd25519(nil)
	if err != nil {
		b.Fatal(err)
	}
	k := NewKeyring()
	if err := k.Register("alice", s.Verifier()); err != nil {
		b.Fatal(err)
	}
	sealed, err := Seal("alice", s, wire.Invoke{App: "stocks", User: "alice"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Open(k, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeySerializationRoundTrip(t *testing.T) {
	s := newEdSigner(t)
	priv := s.MarshalPrivate()
	pub := s.MarshalPublic()

	s2, err := ParseEd25519Signer(priv)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("same key, same signature")
	sig1, _ := s.Sign(data)
	sig2, _ := s2.Sign(data)
	if string(sig1) != string(sig2) {
		t.Error("reconstructed signer signs differently")
	}

	v, err := ParseEd25519Verifier(pub)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verify(data, sig1) {
		t.Error("reconstructed verifier rejects valid signature")
	}

	for _, bad := range []string{"", "!!!", "AAAA"} {
		if _, err := ParseEd25519Signer(bad); err == nil {
			t.Errorf("ParseEd25519Signer(%q) accepted", bad)
		}
		if _, err := ParseEd25519Verifier(bad); err == nil {
			t.Errorf("ParseEd25519Verifier(%q) accepted", bad)
		}
	}
}

func TestKeyringFileRoundTrip(t *testing.T) {
	alice, bob := newEdSigner(t), newEdSigner(t)
	var buf bytes.Buffer
	err := SaveKeyring(&buf, map[wire.UserID]*Ed25519Signer{
		"alice": alice, "bob": bob,
	})
	if err != nil {
		t.Fatal(err)
	}
	k, err := LoadKeyring(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != 2 {
		t.Fatalf("Len = %d", k.Len())
	}
	data := []byte("x")
	sig, _ := alice.Sign(data)
	if err := k.Verify("alice", data, sig); err != nil {
		t.Errorf("alice verify: %v", err)
	}
	if err := k.Verify("bob", data, sig); err == nil {
		t.Error("bob accepted alice's signature")
	}

	if _, err := LoadKeyring(strings.NewReader("{bad")); err == nil {
		t.Error("garbage keyring accepted")
	}
	if _, err := LoadKeyring(strings.NewReader(`{"users":{"x":"!!!"}}`)); err == nil {
		t.Error("bad key in keyring accepted")
	}
}
