package nameservice

import (
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

type fakeEnv struct {
	sent []wire.Envelope
}

var _ core.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Now() time.Time { return time.Time{} }

func (e *fakeEnv) Send(to wire.NodeID, msg wire.Message) {
	e.sent = append(e.sent, wire.Envelope{To: to, Msg: msg})
}

func (e *fakeEnv) SetTimer(time.Duration, func()) core.TimerHandle { return nil }

// resolve asks s for app's manager set, as a host does.
func resolve(s *Server, env *fakeEnv, app wire.AppID) []wire.NodeID {
	s.HandleMessage("h0", wire.ResolveRequest{App: app})
	return env.sent[len(env.sent)-1].Msg.(wire.ResolveResponse).Managers
}

func TestSetResolveRemove(t *testing.T) {
	env := &fakeEnv{}
	s := New(env)
	s.SetManagers("app", []wire.NodeID{"m0", "m1"}, time.Hour)

	s.HandleMessage("h0", wire.ResolveRequest{App: "app", Nonce: 7})
	if len(env.sent) != 1 {
		t.Fatalf("sent %d messages", len(env.sent))
	}
	resp, ok := env.sent[0].Msg.(wire.ResolveResponse)
	if !ok || resp.Nonce != 7 || len(resp.Managers) != 2 || resp.Managers[0] != "m0" || resp.TTL != time.Hour {
		t.Errorf("response = %#v", env.sent[0].Msg)
	}
	if env.sent[0].To != "h0" {
		t.Errorf("sent to %q", env.sent[0].To)
	}

	// Unknown app: empty response, not silence (the host counts it as a
	// failed resolve and applies its attempt policy).
	s.HandleMessage("h0", wire.ResolveRequest{App: "ghost", Nonce: 8})
	resp = env.sent[1].Msg.(wire.ResolveResponse)
	if len(resp.Managers) != 0 || resp.Nonce != 8 {
		t.Errorf("unknown-app response = %#v", resp)
	}

	// Non-resolve messages are ignored.
	s.HandleMessage("h0", wire.Heartbeat{})
	if len(env.sent) != 2 {
		t.Error("non-resolve message produced a reply")
	}

	s.SetManagers("app", nil, 0)
	if got := resolve(s, env, "app"); len(got) != 0 {
		t.Errorf("Managers after removal = %v", got)
	}
}

// TestManagerSetIsolation: the caller's slice is copied both in and out.
func TestManagerSetIsolation(t *testing.T) {
	env := &fakeEnv{}
	s := New(env)
	in := []wire.NodeID{"m0"}
	s.SetManagers("app", in, 0)
	in[0] = "evil"
	if got := resolve(s, env, "app"); got[0] != "m0" {
		t.Error("SetManagers aliased the caller's slice")
	}
	out := resolve(s, env, "app")
	out[0] = "evil"
	if got := resolve(s, env, "app"); got[0] != "m0" {
		t.Error("a response exposed internal state")
	}
}

// Compile-time check against the production wiring.
var _ simnet.Handler = (*Server)(nil)
