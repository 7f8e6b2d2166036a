// Package auth is the authentication substrate assumed by the paper (§2.1):
// "an authentication method is available to ensure that a message sent by a
// user U has indeed been sent by this user". The paper suggests any public
// key cryptosystem such as RSA; this implementation provides Ed25519
// signatures (public-key, the modern stdlib equivalent) behind the
// Signer/Verifier interfaces.
//
// Seal and Open wrap wire messages in authenticated envelopes. The access
// control layer rejects user-originated traffic whose seal does not verify
// against the keyring; authentication is orthogonal to the paper's
// availability/security tradeoff and is therefore switchable per node.
package auth

import (
	"crypto/ed25519"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"wanac/internal/wire"
)

// Signer produces signatures binding a message to a user identity.
type Signer interface {
	// Sign returns a signature over data.
	Sign(data []byte) ([]byte, error)
	// Verifier returns the matching verifier (for self-checks and for
	// registering the identity in a keyring).
	Verifier() Verifier
}

// Verifier checks signatures produced by the matching Signer. A keyring
// holds one per user; ParseEd25519Verifier rebuilds one from a public key.
type Verifier interface {
	// Verify reports whether sig is a valid signature over data.
	Verify(data, sig []byte) bool
}

// Sentinel errors returned by Open and Keyring methods.
var (
	ErrUnknownUser  = errors.New("auth: unknown user")
	ErrBadSignature = errors.New("auth: signature verification failed")
	ErrDuplicate    = errors.New("auth: user already registered")
)

// Ed25519Signer signs with an Ed25519 private key.
type Ed25519Signer struct {
	priv ed25519.PrivateKey
}

var _ Signer = (*Ed25519Signer)(nil)

// GenerateEd25519 creates a fresh keypair from the given entropy source
// (nil means crypto/rand).
func GenerateEd25519(rand io.Reader) (*Ed25519Signer, error) {
	_, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &Ed25519Signer{priv: priv}, nil
}

// Sign implements Signer.
func (s *Ed25519Signer) Sign(data []byte) ([]byte, error) {
	return ed25519.Sign(s.priv, data), nil
}

// Verifier implements Signer.
func (s *Ed25519Signer) Verifier() Verifier {
	pub, ok := s.priv.Public().(ed25519.PublicKey)
	if !ok { // cannot happen with a well-formed key; guard for safety
		return ed25519Verifier{}
	}
	return ed25519Verifier{pub: pub}
}

type ed25519Verifier struct {
	pub ed25519.PublicKey
}

func (v ed25519Verifier) Verify(data, sig []byte) bool {
	if len(v.pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(v.pub, data, sig)
}

// Keyring maps user identities to verifiers. It is safe for concurrent use.
type Keyring struct {
	mu    sync.RWMutex
	users map[wire.UserID]Verifier
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{users: make(map[wire.UserID]Verifier)}
}

// Register associates a verifier with a user. Registering an already-known
// user fails with ErrDuplicate.
func (k *Keyring) Register(user wire.UserID, v Verifier) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.users[user]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, user)
	}
	k.users[user] = v
	return nil
}

// Lookup returns the verifier registered for user.
func (k *Keyring) Lookup(user wire.UserID) (Verifier, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	v, ok := k.users[user]
	return v, ok
}

// Len returns the number of registered users.
func (k *Keyring) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.users)
}

// Verify checks sig over data for the given user.
func (k *Keyring) Verify(user wire.UserID, data, sig []byte) error {
	v, ok := k.Lookup(user)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, user)
	}
	if !v.Verify(data, sig) {
		return fmt.Errorf("%w: user %s", ErrBadSignature, user)
	}
	return nil
}

// Seal wraps msg in an authenticated envelope signed by user's signer. The
// inner message is encoded with the compact binary codec, so only types
// supported by wire.Marshal can be sealed.
func Seal(user wire.UserID, signer Signer, msg wire.Message) (wire.Sealed, error) {
	frame, err := wire.Marshal(msg)
	if err != nil {
		return wire.Sealed{}, fmt.Errorf("seal: %w", err)
	}
	sig, err := signer.Sign(frame)
	if err != nil {
		return wire.Sealed{}, fmt.Errorf("seal sign: %w", err)
	}
	return wire.Sealed{User: user, Frame: frame, Sig: sig}, nil
}

// Open verifies a sealed envelope against the keyring and returns the inner
// message. The caller must still check that the claimed identities inside
// the message (e.g. Invoke.User) match sealed.User; VerifyClaim does both.
func Open(keyring *Keyring, sealed wire.Sealed) (wire.Message, error) {
	if err := keyring.Verify(sealed.User, sealed.Frame, sealed.Sig); err != nil {
		return nil, err
	}
	msg, err := wire.Unmarshal(sealed.Frame)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return msg, nil
}

// VerifyClaim opens a sealed envelope and checks that the identity claimed
// inside the message matches the sealing user, for the two user-originated
// message types the access control layer accepts.
func VerifyClaim(keyring *Keyring, sealed wire.Sealed) (wire.Message, error) {
	msg, err := Open(keyring, sealed)
	if err != nil {
		return nil, err
	}
	switch m := msg.(type) {
	case wire.Invoke:
		if m.User != sealed.User {
			return nil, fmt.Errorf("%w: invoke claims %s, sealed by %s",
				ErrBadSignature, m.User, sealed.User)
		}
	case wire.AdminOp:
		if m.Issuer != sealed.User {
			return nil, fmt.Errorf("%w: admin op claims issuer %s, sealed by %s",
				ErrBadSignature, m.Issuer, sealed.User)
		}
	}
	return msg, nil
}

// Key and keyring serialization, for wiring authenticated deployments from
// files (cmd/ackeygen, acnode -keyring, acctl -key).

// MarshalPrivate returns the Ed25519 private key seed, base64-encoded.
func (s *Ed25519Signer) MarshalPrivate() string {
	return base64.StdEncoding.EncodeToString(s.priv.Seed())
}

// MarshalPublic returns the Ed25519 public key, base64-encoded.
func (s *Ed25519Signer) MarshalPublic() string {
	pub, _ := s.priv.Public().(ed25519.PublicKey)
	return base64.StdEncoding.EncodeToString(pub)
}

// ParseEd25519Signer reconstructs a signer from MarshalPrivate output.
func ParseEd25519Signer(encoded string) (*Ed25519Signer, error) {
	seed, err := base64.StdEncoding.DecodeString(strings.TrimSpace(encoded))
	if err != nil {
		return nil, fmt.Errorf("auth: decode private key: %w", err)
	}
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("auth: private key seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &Ed25519Signer{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// ParseEd25519Verifier reconstructs a verifier from MarshalPublic output.
func ParseEd25519Verifier(encoded string) (Verifier, error) {
	pub, err := base64.StdEncoding.DecodeString(strings.TrimSpace(encoded))
	if err != nil {
		return nil, fmt.Errorf("auth: decode public key: %w", err)
	}
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("auth: public key must be %d bytes, got %d", ed25519.PublicKeySize, len(pub))
	}
	return ed25519Verifier{pub: ed25519.PublicKey(pub)}, nil
}

// KeyringFile is the JSON on-disk format mapping users to base64 Ed25519
// public keys.
type KeyringFile struct {
	Users map[wire.UserID]string `json:"users"`
}

// LoadKeyring reads a KeyringFile and builds a Keyring.
func LoadKeyring(r io.Reader) (*Keyring, error) {
	var kf KeyringFile
	if err := json.NewDecoder(r).Decode(&kf); err != nil {
		return nil, fmt.Errorf("auth: load keyring: %w", err)
	}
	k := NewKeyring()
	for user, encoded := range kf.Users {
		v, err := ParseEd25519Verifier(encoded)
		if err != nil {
			return nil, fmt.Errorf("auth: user %s: %w", user, err)
		}
		if err := k.Register(user, v); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// SaveKeyring writes the keyring's Ed25519 verifiers as a KeyringFile. Only
// ed25519 entries can be serialized; others are rejected.
func SaveKeyring(w io.Writer, entries map[wire.UserID]*Ed25519Signer) error {
	kf := KeyringFile{Users: make(map[wire.UserID]string, len(entries))}
	for user, signer := range entries {
		kf.Users[user] = signer.MarshalPublic()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(kf); err != nil {
		return fmt.Errorf("auth: save keyring: %w", err)
	}
	return nil
}
