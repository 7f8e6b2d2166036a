package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wanac/internal/wire"
)

type recorder struct {
	got []wire.Message
}

func (r *recorder) HandleMessage(_ wire.NodeID, msg wire.Message) {
	r.got = append(r.got, msg)
}

func newTestNet(cfg Config) (*Network, *Scheduler) {
	s := NewScheduler()
	return New(s, cfg), s
}

func TestSendDeliver(t *testing.T) {
	net, s := newTestNet(Config{Latency: Fixed{D: 5 * time.Millisecond}})
	a, b := &recorder{}, &recorder{}
	net.Attach("a", a)
	net.Attach("b", b)
	net.Send("a", "b", wire.Heartbeat{Nonce: 1})
	if len(b.got) != 0 {
		t.Fatal("delivered synchronously")
	}
	s.Run(0)
	if len(b.got) != 1 {
		t.Fatalf("b got %d messages, want 1", len(b.got))
	}
	if hb, ok := b.got[0].(wire.Heartbeat); !ok || hb.Nonce != 1 {
		t.Errorf("b got %#v", b.got[0])
	}
	if len(a.got) != 0 {
		t.Error("sender received its own message")
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %v", st)
	}
	if st.ByKind["heartbeat"] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
}

func TestSendToUnknownDropped(t *testing.T) {
	net, s := newTestNet(Config{})
	net.Attach("a", &recorder{})
	net.Send("a", "ghost", wire.Heartbeat{})
	s.Run(0)
	if st := net.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("stats = %v", st)
	}
}

func TestLinkCut(t *testing.T) {
	net, s := newTestNet(Config{})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.SetLink("a", "b", false)
	if !net.cut[linkKey{"a", "b"}] || !net.cut[linkKey{"b", "a"}] {
		t.Error("link up after cut")
	}
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 0 {
		t.Fatal("message crossed a cut link")
	}
	net.SetLink("a", "b", true)
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 1 {
		t.Fatal("message lost after link restore")
	}
}

func TestOneWayCut(t *testing.T) {
	net, s := newTestNet(Config{})
	a, b := &recorder{}, &recorder{}
	net.Attach("a", a)
	net.Attach("b", b)
	net.SetOneWay("a", "b", false)
	net.Send("a", "b", wire.Heartbeat{Nonce: 1})
	net.Send("b", "a", wire.Heartbeat{Nonce: 2})
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("a->b delivered through one-way cut")
	}
	if len(a.got) != 1 {
		t.Error("b->a should still flow")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net, s := newTestNet(Config{})
	recs := map[wire.NodeID]*recorder{}
	for _, id := range []wire.NodeID{"a1", "a2", "b1", "b2"} {
		r := &recorder{}
		recs[id] = r
		net.Attach(id, r)
	}
	net.Partition([]wire.NodeID{"a1", "a2"}, []wire.NodeID{"b1", "b2"})

	net.Send("a1", "a2", wire.Heartbeat{}) // within group: flows
	net.Send("a1", "b1", wire.Heartbeat{}) // across: cut
	net.Send("b2", "a2", wire.Heartbeat{}) // across: cut
	s.Run(0)
	if len(recs["a2"].got) != 1 {
		t.Error("intra-group message lost")
	}
	if len(recs["b1"].got) != 0 || len(recs["a2"].got) != 1 {
		t.Error("cross-group message delivered during partition")
	}

	net.Heal()
	net.Send("a1", "b1", wire.Heartbeat{})
	s.Run(0)
	if len(recs["b1"].got) != 1 {
		t.Error("message lost after heal")
	}
}

func TestThreeWayPartition(t *testing.T) {
	net, s := newTestNet(Config{})
	for _, id := range []wire.NodeID{"a", "b", "c"} {
		net.Attach(id, &recorder{})
	}
	net.Partition([]wire.NodeID{"a"}, []wire.NodeID{"b"}, []wire.NodeID{"c"})
	pairs := [][2]wire.NodeID{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	for _, p := range pairs {
		if !net.cut[linkKey{p[0], p[1]}] || !net.cut[linkKey{p[1], p[0]}] {
			t.Errorf("link %v survived 3-way partition", p)
		}
	}
	s.Run(0)
}

func TestCrashRecover(t *testing.T) {
	net, s := newTestNet(Config{})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Crash("b")
	if !net.nodes["b"].crashed {
		t.Error("node not crashed after Crash")
	}
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("crashed node received a message")
	}
	net.Recover("b")
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 1 {
		t.Error("recovered node did not receive")
	}
}

func TestCrashedSenderSuppressed(t *testing.T) {
	net, s := newTestNet(Config{})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Crash("a")
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("crashed sender's message delivered")
	}
}

func TestCrashWhileInFlight(t *testing.T) {
	net, s := newTestNet(Config{Latency: Fixed{D: 10 * time.Millisecond}})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Send("a", "b", wire.Heartbeat{})
	// Crash the destination before delivery time.
	s.After(5*time.Millisecond, func() { net.Crash("b") })
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("message delivered to node that crashed while in flight")
	}
}

func TestLoss(t *testing.T) {
	net, s := newTestNet(Config{Loss: 1.0})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	for i := 0; i < 100; i++ {
		net.Send("a", "b", wire.Heartbeat{})
	}
	s.Run(0)
	if len(b.got) != 0 {
		t.Errorf("loss=1.0 delivered %d messages", len(b.got))
	}
}

func TestLossRateApproximate(t *testing.T) {
	net, s := newTestNet(Config{Loss: 0.3, Seed: 7})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	const total = 10000
	for i := 0; i < total; i++ {
		net.Send("a", "b", wire.Heartbeat{})
	}
	s.Run(0)
	rate := 1 - float64(len(b.got))/total
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("empirical loss = %.3f, want ~0.30", rate)
	}
}

func TestPerLinkLossOverride(t *testing.T) {
	net, s := newTestNet(Config{Loss: 0})
	b, c := &recorder{}, &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Attach("c", c)
	net.SetLinkLoss("a", "b", 1.0)
	for i := 0; i < 10; i++ {
		net.Send("a", "b", wire.Heartbeat{})
		net.Send("a", "c", wire.Heartbeat{})
	}
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("override loss=1 still delivered")
	}
	if len(c.got) != 10 {
		t.Error("unrelated link affected by override")
	}
	net.SetLinkLoss("a", "b", -1) // remove override
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 1 {
		t.Error("removing override did not restore delivery")
	}
}

func TestDuplicate(t *testing.T) {
	net, s := newTestNet(Config{Duplicate: 1.0})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 2 {
		t.Errorf("duplicate=1.0 delivered %d copies, want 2", len(b.got))
	}
	if st := net.Stats(); st.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", st.Duplicated)
	}
}

func TestFilterHook(t *testing.T) {
	net, s := newTestNet(Config{})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	net.Filter = func(_, _ wire.NodeID, msg wire.Message) bool {
		_, isHB := msg.(wire.Heartbeat)
		return !isHB // drop heartbeats only
	}
	net.Send("a", "b", wire.Heartbeat{})
	net.Send("a", "b", wire.Query{App: "x", User: "u", Right: wire.RightUse})
	s.Run(0)
	if len(b.got) != 1 {
		t.Fatalf("got %d messages, want 1", len(b.got))
	}
	if _, ok := b.got[0].(wire.Query); !ok {
		t.Errorf("wrong message survived filter: %#v", b.got[0])
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []string {
		net, s := newTestNet(Config{
			Latency: Uniform{Min: time.Millisecond, Max: 50 * time.Millisecond},
			Loss:    0.2,
			Seed:    99,
		})
		var log []string
		net.Attach("a", &recorder{})
		net.Attach("b", HandlerFunc(func(_ wire.NodeID, msg wire.Message) {
			log = append(log, s.Now().String()+" "+msg.Kind())
		}))
		for i := 0; i < 50; i++ {
			net.Send("a", "b", wire.Heartbeat{Nonce: uint64(i)})
		}
		s.Run(0)
		return log
	}
	log1, log2 := run(), run()
	if len(log1) != len(log2) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("non-deterministic at %d: %q vs %q", i, log1[i], log2[i])
		}
	}
}

func TestResetStats(t *testing.T) {
	net, s := newTestNet(Config{})
	net.Attach("a", &recorder{})
	net.Attach("b", &recorder{})
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	net.ResetStats()
	if st := net.Stats(); st.Sent != 0 || st.Delivered != 0 || len(st.ByKind) != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{Sent: 3, Delivered: 2, Dropped: 1}
	if got := c.String(); got != "sent=3 delivered=2 dropped=1 duplicated=0" {
		t.Errorf("String() = %q", got)
	}
}

func TestLatencyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (Fixed{D: time.Second}).Sample(rng); d != time.Second {
		t.Errorf("Fixed sample = %v", d)
	}
	u := Uniform{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := u.Sample(rng); d < u.Min || d > u.Max {
			t.Fatalf("Uniform sample %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	if d := (Uniform{Min: time.Second, Max: time.Second}).Sample(rng); d != time.Second {
		t.Errorf("degenerate Uniform sample = %v", d)
	}
	e := Exponential{Base: 10 * time.Millisecond, Mean: 5 * time.Millisecond, Cap: 100 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		if d := e.Sample(rng); d < e.Base || d > e.Cap {
			t.Fatalf("Exponential sample %v outside [base,cap]", d)
		}
	}
	l := LogNormal{Scale: 20 * time.Millisecond, Sigma: 0.5, Cap: time.Second}
	for i := 0; i < 1000; i++ {
		if d := l.Sample(rng); d < 0 || d > l.Cap {
			t.Fatalf("LogNormal sample %v outside [0,cap]", d)
		}
	}
}

// TestUniformSampleQuick property-tests that Uniform samples always stay in
// range for arbitrary non-degenerate intervals.
func TestUniformSampleQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(minMS, spanMS uint16) bool {
		u := Uniform{
			Min: time.Duration(minMS) * time.Millisecond,
			Max: time.Duration(minMS)*time.Millisecond + time.Duration(spanMS)*time.Millisecond,
		}
		d := u.Sample(rng)
		return d >= u.Min && d <= u.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDetach(t *testing.T) {
	net, s := newTestNet(Config{})
	b := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", b)
	delete(net.nodes, "b")
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(b.got) != 0 {
		t.Error("detached node received a message")
	}
	if st := net.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d", st.Dropped)
	}
}

func TestRandExposedAndDeterministic(t *testing.T) {
	n1, _ := newTestNet(Config{Seed: 5})
	n2, _ := newTestNet(Config{Seed: 5})
	for i := 0; i < 10; i++ {
		if n1.rng.Float64() != n2.rng.Float64() {
			t.Fatal("Rand streams diverge for equal seeds")
		}
	}
}

func TestLogNormalCapAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := LogNormal{Scale: 100 * time.Millisecond, Sigma: 3, Cap: 200 * time.Millisecond}
	capped := false
	for i := 0; i < 2000; i++ {
		d := l.Sample(rng)
		if d > l.Cap {
			t.Fatalf("sample %v above cap", d)
		}
		if d == l.Cap {
			capped = true
		}
	}
	if !capped {
		t.Error("sigma=3 never hit the cap in 2000 samples")
	}
	// Sigma 0 degenerates to the median.
	if d := (LogNormal{Scale: time.Second}).Sample(rng); d != time.Second {
		t.Errorf("sigma=0 sample = %v", d)
	}
}

func TestAttachReplacesAndClearsCrash(t *testing.T) {
	net, s := newTestNet(Config{})
	old := &recorder{}
	net.Attach("a", &recorder{})
	net.Attach("b", old)
	net.Crash("b")
	fresh := &recorder{}
	net.Attach("b", fresh) // re-attach: new handler, crash flag cleared
	net.Send("a", "b", wire.Heartbeat{})
	s.Run(0)
	if len(old.got) != 0 {
		t.Error("old handler still wired")
	}
	if len(fresh.got) != 1 {
		t.Error("fresh handler not receiving (crash flag not cleared)")
	}
}

// TestSendAllocationBudget pins the steady-state allocation cost of
// Network.Send + delivery: with pooled delivery events the whole
// send/deliver cycle is allocation-free once warm. Budget: 0.
func TestSendAllocationBudget(t *testing.T) {
	sched := NewScheduler()
	n := New(sched, Config{})
	n.Attach("a", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	n.Attach("b", HandlerFunc(func(wire.NodeID, wire.Message) {}))
	var msg wire.Message = wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 7}
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		n.Send("a", "b", msg)
	}
	sched.Run(0)
	allocs := testing.AllocsPerRun(200, func() {
		n.Send("a", "b", msg)
		sched.Run(0)
	})
	if allocs > 0 {
		t.Errorf("Send+deliver allocates %.1f objects/op, budget is 0", allocs)
	}
}
