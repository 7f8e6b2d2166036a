package main

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"wanac"
	"wanac/internal/acl"
	"wanac/internal/audit"
	"wanac/internal/auth"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/netcore"
	"wanac/internal/ratelimit"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// The isolated-call pass: every layer's primitive in a fixed-count loop over
// the same seeded inputs, no sockets except where the row says so. Together
// the rows re-measure everything cmd/acbench/BENCH.json records (README.md
// has the mapping). Each row is the median of isoReps repetitions.

const isoReps = 5

// iso collects the pass's rows. scale shrinks every loop (the self-check
// uses 3 iterations per repetition).
type iso struct {
	set   *metricSet
	scale float64
	err   error
}

func (p *iso) count(full int) int {
	n := int(float64(full) * p.scale)
	if n < 3 {
		n = 3
	}
	return n
}

// perOp records the median ns per call of fn over isoReps loops of n.
func (p *iso) perOp(name string, full int, fn func(i int)) {
	n := p.count(full)
	fn(0) // warm
	var reps []float64
	for r := 0; r < isoReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		reps = append(reps, float64(time.Since(t0))/float64(n))
	}
	p.set.add(name, median(reps))
}

// perSecond records the median rate of run, which performs n operations.
func (p *iso) perSecond(name string, full int, run func(n int) error) {
	n := p.count(full)
	var reps []float64
	for r := 0; r < isoReps; r++ {
		t0 := time.Now()
		if err := run(n); err != nil {
			p.fail(name, err)
			return
		}
		reps = append(reps, float64(n)/time.Since(t0).Seconds())
	}
	p.set.add(name, median(reps))
}

func (p *iso) fail(name string, err error) {
	if p.err == nil {
		p.err = fmt.Errorf("isolated %s: %w", name, err)
	}
	p.set.add(name, 0)
}

// stubEnv is a core.Env with no network: it records what the node sends.
type stubEnv struct {
	sent []stubSend
}

type stubSend struct {
	to  wire.NodeID
	msg wire.Message
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return true }

func (e *stubEnv) Now() time.Time                                  { return time.Now() }
func (e *stubEnv) Send(to wire.NodeID, m wire.Message)             { e.sent = append(e.sent, stubSend{to, m}) }
func (e *stubEnv) SetTimer(time.Duration, func()) core.TimerHandle { return stubTimer{} }

var isoManagers = []wire.NodeID{"m0", "m1", "m2"}

// stubHost builds a host over a stub Env with user u0 cached, observers
// attached as asked — the cmd/acnode wiring, one piece at a time.
func stubHost(withTelemetry, withFlight, withAudit bool) (*core.Host, *stubEnv, error) {
	env := &stubEnv{}
	var tracer trace.Tracer
	reg := telemetry.NewRegistry()
	if withFlight {
		tracer = flight.Tee(flight.NewRecorder("h0", ringSize, nil), nil)
		if withTelemetry {
			tracer = telemetry.InstrumentTracer(reg, tracer)
		}
	}
	h := core.NewHost("h0", env, tracer, nil)
	err := h.RegisterApp(benchApp, core.HostAppConfig{
		Managers: isoManagers,
		Policy:   core.Policy{CheckQuorum: checkC, Te: time.Hour, QueryTimeout: 2 * time.Second, MaxAttempts: 3},
	})
	if err != nil {
		return nil, nil, err
	}
	if withTelemetry {
		core.InstrumentHost(reg, nil, h)
	}
	if withAudit {
		h.SetAudit(audit.NewRecorder("h0", ringSize, nil))
	}
	allowed := false
	coldCheck(h, env, "u0", time.Hour, func(d core.Decision) { allowed = d.Allowed })
	if !allowed {
		return nil, nil, fmt.Errorf("stub host: warm-up check was not allowed")
	}
	return h, env, nil
}

// coldCheck runs one full uncached check against the stub: Check, then the
// C grants the queries would have earned, fed straight back in.
func coldCheck(h *core.Host, env *stubEnv, user wire.UserID, expire time.Duration, cb func(core.Decision)) {
	env.sent = env.sent[:0]
	h.Check(benchApp, user, wire.RightUse, cb)
	for i := 0; i < len(env.sent); i++ {
		s := env.sent[i]
		if q, ok := s.msg.(wire.Query); ok {
			h.HandleMessage(s.to, wire.Response{
				App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Trace: q.Trace,
				Granted: true, Expire: expire,
			})
		}
	}
}

// memSender is a netcore.Sender that discards what it is given.
type memSender struct{ frames atomic.Uint64 }

func (s *memSender) WriteFrame([]byte) error { s.frames.Add(1); return nil }
func (s *memSender) WriteBatch(b net.Buffers) (int, error) {
	s.frames.Add(uint64(len(b)))
	return len(b), nil
}
func (s *memSender) Close() error { return nil }

// echo is the trivial handler of the transport floor rows: it answers a
// Heartbeat and counts everything else.
type echo struct {
	tr        wanac.Transport
	delivered atomic.Uint64
	acks      chan struct{}
}

func (e *echo) HandleMessage(from wire.NodeID, msg wire.Message) {
	switch m := msg.(type) {
	case wire.Heartbeat:
		e.tr.Send(from, wire.HeartbeatAck{Nonce: m.Nonce})
	case wire.HeartbeatAck:
		select {
		case e.acks <- struct{}{}:
		default:
		}
	default:
		e.delivered.Add(1)
	}
}

// transportFloor measures what a cold check sits on: a round trip and a
// one-way blast between two nodes whose handlers do nothing.
func (p *iso) transportFloor(network string) {
	rttName, rateName := network+"net.echo_rtt_p50_us", network+"net.oneway_msgs_per_s"
	msgs := p.count(20000)
	open := func(id wire.NodeID) (wanac.Transport, *echo, error) {
		tr, err := wanac.Listen(network, id, "127.0.0.1:0", wanac.WithQueueDepth(msgs+64))
		if err != nil {
			return nil, nil, err
		}
		e := &echo{tr: tr, acks: make(chan struct{}, 1)}
		tr.SetHandler(e)
		return tr, e, nil
	}
	bail := func(err error) {
		p.fail(rttName, err)
		p.set.add(rateName, 0)
	}
	a, ea, err := open("bench-a")
	if err != nil {
		bail(err)
		return
	}
	defer a.Close()
	b, eb, err := open("bench-b")
	if err != nil {
		bail(err)
		return
	}
	defer b.Close()
	if err = a.AddPeer("bench-b", b.Addr()); err == nil {
		err = b.AddPeer("bench-a", a.Addr())
	}
	if err != nil {
		bail(err)
		return
	}

	var rtts []float64
	lost := 0
	for i, n := 0, p.count(400); i < n+20; i++ {
		select {
		case <-ea.acks: // a straggler from a round trip given up on
		default:
		}
		t0 := time.Now()
		a.Send("bench-b", wire.Heartbeat{Nonce: uint64(i)})
		select {
		case <-ea.acks:
			if i >= 20 { // the first few dial and warm
				rtts = append(rtts, float64(time.Since(t0))/1e3)
			}
		case <-time.After(250 * time.Millisecond):
			lost++
		}
	}
	if len(rtts) == 0 || (network == "tcp" && lost > 0) {
		p.fail(rttName, fmt.Errorf("%d round trips lost", lost))
	} else {
		p.set.add(rttName, median(rtts))
	}

	// One way: blast, then wait until everything is delivered, dropped, or
	// (datagrams vanish without a counter moving) delivery has stopped.
	t0 := time.Now()
	for i := 0; i < msgs; i++ {
		a.Send("bench-b", wire.Query{App: benchApp, User: "u", Right: wire.RightUse, Nonce: uint64(i)})
	}
	end, last := time.Now(), uint64(0)
	for {
		done := eb.delivered.Load() + a.Stats().Drops
		if done > last {
			last, end = done, time.Now()
		}
		if done >= uint64(msgs) || time.Since(end) > 200*time.Millisecond {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	p.set.add(rateName, float64(eb.delivered.Load())/end.Sub(t0).Seconds())
}

// isolatedPass runs every row and returns them in catalogue order.
func isolatedPass(seed int64, scale float64) (*metricSet, error) {
	p := &iso{set: newMetricSet(), scale: scale}
	users := userIDs("u", 4096)
	farFuture := time.Now().Add(time.Hour)

	// acl
	cache := acl.NewCache()
	for _, u := range users[:256] {
		cache.Put(benchApp, u, wire.RightUse, farFuture, "m0")
	}
	now := time.Now()
	p.perOp("acl.cache.lookup_hit_ns", 200_000, func(i int) {
		cache.LookupStatus(benchApp, users[i&255], wire.RightUse, now)
	})
	p.perOp("acl.cache.put_ns", 100_000, func(i int) {
		cache.Put(benchApp, users[i&4095], wire.RightUse, farFuture, "m0")
	})
	small := acl.NewCache()
	small.SetMaxEntries(128)
	p.perOp("acl.cache.evict_ns", 10_000, func(i int) {
		small.Put(benchApp, users[i&4095], wire.RightUse, farFuture.Add(time.Duration(i)), "m0")
	})
	store := acl.NewStore()
	for _, u := range users {
		store.Grant(benchApp, u, wire.RightUse)
	}
	p.perOp("acl.store.has_ns", 200_000, func(i int) { store.Has(benchApp, users[i&4095], wire.RightUse) })

	// wire
	var (
		query    wire.Message = wire.Query{App: benchApp, User: "u17", Right: wire.RightUse, Nonce: 42, Trace: 42}
		response wire.Message = wire.Response{App: benchApp, User: "u17", Right: wire.RightUse, Nonce: 42, Granted: true, Expire: time.Minute, Trace: 42}
		update   wire.Message = wire.Update{Seq: wire.UpdateSeq{Origin: "m0", Counter: 7}, Op: wire.OpRevoke, App: benchApp, User: "u17", Right: wire.RightUse, Issued: now}
	)
	buf := make([]byte, 0, 4096)
	p.perOp("wire.size_ns", 500_000, func(int) { wire.Size(query) })
	for _, row := range []struct {
		name string
		msg  wire.Message
	}{{"query", query}, {"response", response}, {"update", update}} {
		msg := row.msg
		p.perOp("wire.append_"+row.name+"_ns", 200_000, func(int) { buf, _ = wire.AppendMarshal(buf[:0], msg) })
	}
	for _, row := range []struct {
		name string
		msg  wire.Message
	}{{"query", query}, {"response", response}} {
		enc, err := wire.Marshal(row.msg)
		if err != nil {
			return nil, err
		}
		p.perOp("wire.unmarshal_"+row.name+"_ns", 200_000, func(int) { wire.Unmarshal(enc) })
	}
	batch := make([]wire.Message, 16)
	for i := range batch {
		batch[i] = query
	}
	p.perOp("wire.append_batch16_ns", 50_000, func(int) { buf, _ = wire.AppendBatch(buf[:0], batch) })

	// netcore framing and the peer writer
	p.perOp("netcore.frame_encode_ns", 200_000, func(int) { netcore.EncodeStreamFrame("h0", query, netcore.DefaultMaxFrame) })
	frame, err := netcore.EncodeStreamFrame("h0", query, netcore.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(frame)
	p.perOp("netcore.frame_read_ns", 200_000, func(int) {
		rd.Reset(frame)
		netcore.ReadStreamFrame(rd, netcore.DefaultMaxFrame)
	})
	payload, err := netcore.EncodeFrame("h0", query, netcore.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	packed := []byte{netcore.PackedMarker}
	for i := 0; i < 16; i++ {
		packed = binary.AppendUvarint(packed, uint64(len(payload)))
		packed = append(packed, payload...)
	}
	var parts [][]byte
	p.perOp("netcore.split_datagram_ns", 200_000, func(int) { parts, _ = netcore.SplitDatagram(packed, parts[:0]) })
	p.perSecond("netcore.peer_pump_msgs_per_s", 50_000, func(n int) error {
		cfg := netcore.BuildConfig(netcore.WithQueueDepth(n + 64))
		cfg.Framing = &netcore.Framing{From: "h0", Stream: true, Limit: netcore.DefaultMaxFrame}
		g := netcore.NewGroup("pump", cfg)
		defer g.Close()
		sender := &memSender{}
		peer := g.Ensure("m0", func() (netcore.Sender, error) { return sender, nil })
		for i := 0; i < n; i++ {
			peer.EnqueueMessage(query)
		}
		deadline := time.Now().Add(10 * time.Second)
		for g.Counters().LaneDelivered[wire.LaneBulk].Load() < uint64(n) {
			if time.Now().After(deadline) {
				return fmt.Errorf("writer stalled")
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	})
	p.transportFloor("tcp")
	p.transportFloor("udp")

	// core over a stub Env: the observer tax, then the state machines
	nop := func(core.Decision) {}
	for _, row := range []struct {
		name                string
		tel, flight, audits bool
	}{
		{"bare", false, false, false}, {"telemetry", true, false, false},
		{"flight", false, true, false}, {"audit", false, false, true}, {"all", true, true, true},
	} {
		h, _, err := stubHost(row.tel, row.flight, row.audits)
		if err != nil {
			return nil, err
		}
		p.perOp("core.host.cached_check_"+row.name+"_ns", 200_000, func(int) {
			h.Check(benchApp, "u0", wire.RightUse, nop)
		})
	}
	h, env, err := stubHost(true, true, true)
	if err != nil {
		return nil, err
	}
	p.perOp("core.host.cold_check_stub_ns", 25_000, func(i int) {
		// Expire after a nanosecond: every visit to a user is uncached.
		coldCheck(h, env, users[i&4095], time.Nanosecond, nop)
	})
	menv := &stubEnv{}
	mgr := core.NewManager("m0", menv, nil, nil)
	if err := mgr.AddApp(benchApp, core.ManagerAppConfig{Peers: isoManagers, CheckQuorum: checkC, Te: time.Minute}); err != nil {
		return nil, err
	}
	mgr.Seed(benchApp, benchAdmin, wire.RightManage)
	for _, u := range users {
		mgr.Seed(benchApp, u, wire.RightUse)
	}
	mgr.SetAudit(audit.NewRecorder("m0", ringSize, nil))
	core.InstrumentManager(telemetry.NewRegistry(), nil, mgr)
	p.perOp("core.manager.handle_query_stub_ns", 100_000, func(i int) {
		menv.sent = menv.sent[:0]
		mgr.HandleMessage("h0", wire.Query{App: benchApp, User: users[i&4095], Right: wire.RightUse, Nonce: uint64(i), Trace: uint64(i)})
	})
	p.perOp("core.manager.submit_stub_ns", 25_000, func(i int) {
		op := wire.OpRevoke
		if i&1 == 1 {
			op = wire.OpAdd
		}
		menv.sent = menv.sent[:0]
		mgr.Submit(wire.AdminOp{Op: op, App: benchApp, User: users[(i>>1)&4095], Right: wire.RightUse, Issuer: benchAdmin}, nil)
		for j := 0; j < len(menv.sent); j++ {
			if upd, ok := menv.sent[j].msg.(wire.Update); ok {
				mgr.HandleMessage(menv.sent[j].to, wire.UpdateAck{Seq: upd.Seq})
			}
		}
	})

	// observers and small parts
	aud := audit.NewRecorder("h0", ringSize, nil)
	p.perOp("audit.record_ns", 200_000, func(int) {
		aud.Record(audit.Record{Kind: audit.KindDecision, App: "bench", User: "u0", Right: "use", Reason: audit.ReasonCacheHit, Allowed: true})
	})
	fl := flight.NewRecorder("h0", ringSize, nil)
	p.perOp("flight.record_ns", 200_000, func(int) {
		fl.RecordEvent(trace.Event{Time: now, Node: "h0", Type: trace.EventCacheHit, App: benchApp, User: "u0"})
	})
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "Isolated-pass counter.")
	p.perOp("telemetry.counter_inc_ns", 500_000, func(int) { ctr.Inc() })
	hist := reg.Histogram("bench_seconds", "Isolated-pass histogram.", nil)
	p.perOp("telemetry.histogram_observe_ns", 500_000, func(i int) { hist.Observe(float64(i&1023) * 1e-5) })
	bucket := ratelimit.NewBucket(1e9, 1e9)
	p.perOp("ratelimit.allow_ns", 500_000, func(int) { bucket.Allow(now) })
	signer, err := auth.GenerateEd25519(rand.Reader)
	if err != nil {
		return nil, err
	}
	data, _ := wire.Marshal(query)
	sig, err := signer.Sign(data)
	if err != nil {
		return nil, err
	}
	verifier := signer.Verifier()
	p.perOp("auth.sign_ns", 1_000, func(int) { signer.Sign(data) })
	p.perOp("auth.verify_ns", 500, func(int) { verifier.Verify(data, sig) })

	// simulator
	p.perSecond("simnet.scheduler_events_per_s", 100_000, func(n int) error {
		sched := simnet.NewScheduler()
		fired := 0
		for i := 0; i < n; i++ {
			sched.After(time.Duration(i%997)*time.Millisecond, func() { fired++ })
		}
		sched.Run(0)
		if fired != n {
			return fmt.Errorf("fired %d of %d events", fired, n)
		}
		return nil
	})
	sched := simnet.NewScheduler()
	snet := simnet.New(sched, simnet.Config{Seed: seed})
	sink := simnet.HandlerFunc(func(wire.NodeID, wire.Message) {})
	snet.Attach("a", sink)
	snet.Attach("b", sink)
	p.perOp("simnet.send_deliver_ns", 100_000, func(i int) {
		snet.Send("a", "b", query)
		if i&63 == 63 {
			sched.Run(0)
		}
	})
	p.perSecond("sim.montecarlo_trials_per_s", 500, func(n int) error {
		_, err := sim.EstimatePA(sim.TrialParams{M: 10, C: 5, Pi: 0.1, Trials: n, Seed: seed + 1})
		return err
	})

	return p.set, p.err
}
