package core

import (
	"sync"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// wallEnv is a live-style Env for benchmarks: the wall clock, time.AfterFunc
// timers, and a Send that keeps every message for the warm-up to answer.
type wallEnv struct {
	mu   sync.Mutex
	sent []wire.Envelope
}

func (e *wallEnv) Now() time.Time { return time.Now() }

func (e *wallEnv) Send(to wire.NodeID, msg wire.Message) {
	e.mu.Lock()
	e.sent = append(e.sent, wire.Envelope{To: to, Msg: msg})
	e.mu.Unlock()
}

func (e *wallEnv) SetTimer(d time.Duration, fn func()) TimerHandle { return time.AfterFunc(d, fn) }

// BenchmarkCachedCheckParallel: cached checks of one warm key from
// GOMAXPROCS callers on one host, on the wall clock, with the observers a
// deployment attaches: none (bare), the journal taking decisions (journal),
// and acnode's chain — the event bridge over a journal tee ending the chain,
// InstrumentHost and the journal (acnode). Run with -cpu 1,2: ns/op is the
// aggregate time per hit, so the -cpu 1 reading over the -cpu 2 one is what
// a second caller adds to a host's hit throughput, and acnode over bare is
// the observers' tax; both ratios are read within one binary.
func BenchmarkCachedCheckParallel(b *testing.B) {
	for _, bc := range []struct {
		name string
		host func(env Env) *Host
	}{
		{"bare", func(env Env) *Host { return NewHost("h0", env, nil, nil) }},
		{"journal", func(env Env) *Host {
			h := NewHost("h0", env, nil, nil)
			h.SetAudit(flight.NewRecorder("h0", 4096, nil))
			return h
		}},
		{"acnode", func(env Env) *Host {
			reg, rec := telemetry.NewRegistry(), flight.NewRecorder("h0", 4096, nil)
			h := NewHost("h0", env, telemetry.InstrumentTracer(reg, flight.Tee(rec, nil)), nil)
			InstrumentHost(reg, nil, h)
			h.SetAudit(rec)
			return h
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			env := &wallEnv{}
			h := bc.host(env)
			if err := h.RegisterApp("a", HostAppConfig{
				Managers: []wire.NodeID{"m0", "m1", "m2"},
				Policy:   Policy{CheckQuorum: 2, Te: time.Hour, QueryTimeout: 2 * time.Second, MaxAttempts: 3},
			}); err != nil {
				b.Fatal(err)
			}
			h.Check("a", "u", wire.RightUse, func(Decision) {})
			for _, e := range env.sent {
				q := e.Msg.(wire.Query)
				h.HandleMessage(e.To, wire.Response{
					App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: true, Expire: time.Hour,
				})
			}
			before := h.Stats().CacheHits
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				cb := func(Decision) {}
				for pb.Next() {
					h.Check("a", "u", wire.RightUse, cb)
				}
			})
			b.StopTimer()
			if hits := h.Stats().CacheHits - before; hits != uint64(b.N) {
				b.Fatalf("%d of %d checks hit the cache", hits, b.N)
			}
		})
	}
}
