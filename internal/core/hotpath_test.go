package core

// Tests for the cache-hit path, which decides without Host.mu (see
// Host.cacheHit): what its audit evidence cites after a refresh, and that
// taking it off the lock kept the ordering and the exactness the locked
// path had. The concurrency tests mean something only under -race;
// scripts/ci.sh runs them at -race -count=5.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanac/internal/flight"
	"wanac/internal/telemetry"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// lastRound returns the queries of the most recent round, one per manager
// asked.
func lastRound(t *testing.T, env *fakeEnv) []wire.Envelope {
	t.Helper()
	nonce := env.lastQueryNonce(t)
	var round []wire.Envelope
	for _, e := range env.sent {
		if q, ok := e.Msg.(wire.Query); ok && q.Nonce == nonce {
			round = append(round, e)
		}
	}
	return round
}

// answerRound replies to every query of round with the given verdict (a
// one-minute grant), from the manager it was sent to.
func answerRound(h *Host, round []wire.Envelope, granted bool) {
	for _, e := range round {
		q := e.Msg.(wire.Query)
		h.HandleMessage(e.To, wire.Response{
			App: q.App, User: q.User, Right: q.Right, Nonce: q.Nonce, Granted: granted, Expire: time.Minute,
		})
	}
}

// TestCacheHitAuditCitesOnlyCurrentVouchers: with refresh-ahead and the
// rotating first-round window, successive refreshes are confirmed by
// different manager pairs (m0,m1 then m2,m0 then m1,m2). The cache-hit
// record must cite the C=2 managers that confirmed the entry's current
// limit, not every manager that ever vouched for the key.
func TestCacheHitAuditCitesOnlyCurrentVouchers(t *testing.T) {
	env := newFakeEnv()
	h := NewHost("h0", env, nil, nil)
	rec := flight.NewRecorder("h0", 64, env.Now)
	h.SetAudit(rec)
	if err := h.RegisterApp("a", HostAppConfig{
		Managers: []wire.NodeID{"m0", "m1", "m2"},
		Policy: Policy{
			CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2,
			Te: time.Minute, RefreshAhead: 20 * time.Second,
		},
	}); err != nil {
		t.Fatal(err)
	}
	nop := func(Decision) {}
	lastHit := func() flight.Record {
		t.Helper()
		recs := rec.Snapshot()
		r := recs[len(recs)-1]
		if r.Reason != flight.ReasonCacheHit {
			t.Fatalf("last record is %v, want a cache hit", r.Reason)
		}
		return r
	}

	h.Check("a", "u", wire.RightUse, nop)
	first := lastRound(t, env)
	if len(first) != 2 {
		t.Fatalf("first round asked %d managers, want C=2", len(first))
	}
	answerRound(h, first, true)
	for refresh := 1; refresh <= 2; refresh++ {
		env.advance(45 * time.Second) // inside the entry's last 20s
		rounds := h.Stats().QueryRounds
		h.Check("a", "u", wire.RightUse, nop)
		if h.Stats().QueryRounds != rounds+1 {
			t.Fatalf("refresh %d: the hit started no refresh-ahead round", refresh)
		}
		before := lastHit()
		answerRound(h, lastRound(t, env), true)
		h.Check("a", "u", wire.RightUse, nop)
		after := lastHit()
		if !after.Expiry.After(before.Expiry) {
			t.Fatalf("refresh %d did not extend the entry: %v then %v", refresh, before.Expiry, after.Expiry)
		}
		if after.Granters != 2 {
			t.Errorf("refresh %d: cache hit cites %d granters for a limit two managers confirmed", refresh, after.Granters)
		}
	}
}

// hotHost is a host with every observer attached (metrics, audit, a bounded
// trace collector) and user "u" warm in its cache, on an environment that
// tolerates concurrent callers.
type hotHost struct {
	h    *Host
	lenv *lockedEnv
	reg  *telemetry.Registry
	aud  *flight.Recorder
}

func newHotHost(t *testing.T, policy Policy) *hotHost {
	t.Helper()
	return newHotHostOn(t, "h0", telemetry.NewRegistry(), policy)
}

// newHotHostOn is newHotHost for a host that shares reg with others.
func newHotHostOn(t *testing.T, id wire.NodeID, reg *telemetry.Registry, policy Policy) *hotHost {
	t.Helper()
	lenv := newLockedEnv()
	hh := &hotHost{lenv: lenv, reg: reg}
	hh.h = NewHost(id, lenv, nil, nil)
	hh.aud = flight.NewRecorder(string(id), 64, lenv.Now)
	InstrumentHost(hh.reg, hh.aud, hh.h)
	managers := []wire.NodeID{"m0", "m1", "m2"}
	if err := hh.h.RegisterApp("a", HostAppConfig{Managers: managers, Policy: policy}); err != nil {
		t.Fatal(err)
	}
	hh.h.Check("a", "u", wire.RightUse, func(Decision) {})
	hh.answer(t, true)
	if hh.h.CacheGranters("a", "u", wire.RightUse) != policy.CheckQuorum {
		t.Fatal("warm-up did not cache the grant")
	}
	return hh
}

// answer replies to the most recent round from every manager it asked.
func (hh *hotHost) answer(t *testing.T, granted bool) {
	t.Helper()
	hh.lenv.mu.Lock()
	round := lastRound(t, hh.lenv.e)
	hh.lenv.mu.Unlock()
	answerRound(hh.h, round, granted)
}

// TestNoCacheHitAfterFlushReturns: callers hammer a warm key while the test
// removes the entry — by a manager's RevokeNotice, by Reset, by M-C+1
// managers denying a refresh. A hit's linearization point is its cache
// probe, so once the removing call has returned no check that starts
// afterwards may report a cache hit; and with every caller done, the four
// views of "how many decisions" — HostStats, the journal, the outcome
// counters, the reason counters — agree exactly, although hits are counted
// outside Host.mu.
func TestNoCacheHitAfterFlushReturns(t *testing.T) {
	policy := Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute}
	// Grants last a minute (answerRound), so with this policy every hit
	// is inside the refresh window and the first one starts a refresh round.
	refreshing := policy
	refreshing.Te, refreshing.RefreshAhead = time.Hour, 30*time.Minute

	for _, tc := range []struct {
		name   string
		policy Policy
		flush  func(t *testing.T, hh *hotHost)
	}{
		{"revoke-notice", policy, func(t *testing.T, hh *hotHost) {
			hh.h.HandleMessage("m0", wire.RevokeNotice{App: "a", User: "u", Right: wire.RightUse})
		}},
		{"reset", policy, func(t *testing.T, hh *hotHost) { hh.h.Reset() }},
		{"quorum-deny", refreshing, func(t *testing.T, hh *hotHost) {
			// C=2 of M=3 asked, both deny: no two can grant, so the entry is
			// removed and the refresh finishes denied in its one round.
			hh.answer(t, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hh := newHotHost(t, tc.policy)
			h := hh.h
			var flushed atomic.Bool
			var hits atomic.Uint64
			const callers, afterFlush = 4, 50
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left := afterFlush; left > 0; {
						startedAfter := flushed.Load()
						h.Check("a", "u", wire.RightUse, func(d Decision) {
							if !d.CacheHit {
								t.Errorf("unexpected decision %+v (post-flush checks stay in flight)", d)
								return
							}
							hits.Add(1)
							if startedAfter {
								t.Error("cache hit for a check started after the flush returned")
							}
						})
						if startedAfter {
							left--
						}
					}
				}()
			}
			for h.Stats().CacheHits < 2000 { // the flush lands mid-load
				runtime.Gosched()
			}
			tc.flush(t, hh)
			flushed.Store(true)
			wg.Wait()

			st := h.Stats()
			if st.CacheHits != hits.Load() {
				t.Errorf("Stats().CacheHits = %d, callers saw %d", st.CacheHits, hits.Load())
			}
			if st.CacheLen != 0 {
				t.Errorf("entry survived the flush: cache holds %d", st.CacheLen)
			}
			var byOutcome, byReason uint64
			outcomes := hh.reg.CounterVec("wanac_host_checks_total", "", "outcome")
			for _, name := range outcomeNames {
				byOutcome += outcomes.With(name).Value()
			}
			for _, n := range ReasonCounts(hh.reg) {
				byReason += n
			}
			if dec := hh.aud.Decisions(); st.Checks != dec || st.Checks != byOutcome || st.Checks != byReason {
				t.Errorf("decisions disagree: Stats().Checks %d, audit records %d, wanac_host_checks_total %d, wanac_host_check_reasons_total %d",
					st.Checks, dec, byOutcome, byReason)
			}
		})
	}
}

// TestViewPublicationUnderLoad: SetAudit and RegisterApp republish the view
// a check reads without a lock. Flipping both while callers hit the cache
// must be race-clean, must never disturb a decision, and a published app
// must be usable by the very next check.
func TestViewPublicationUnderLoad(t *testing.T) {
	hh := newHotHost(t, Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute})
	h := hh.h
	var stop atomic.Bool
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.Check("a", "u", wire.RightUse, func(d Decision) {
					if !d.Allowed || !d.CacheHit {
						t.Errorf("decision %+v, want a cache hit", d)
					}
					hits.Add(1)
				})
			}
		}()
	}
	// The flips below take microseconds: on a busy box they used to finish
	// before any caller had been scheduled, and the test then failed on
	// "no hits" without having tested anything. Start once callers hit.
	for hits.Load() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			h.SetAudit(nil)
		} else {
			h.SetAudit(hh.aud)
		}
		app := wire.AppID(fmt.Sprintf("extra%d", i))
		if err := h.RegisterApp(app, HostAppConfig{
			Managers: []wire.NodeID{"m0", "m1", "m2"},
			Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 1},
		}); err != nil {
			t.Fatal(err)
		}
		rounds := h.Stats().QueryRounds
		h.Check(app, "u", wire.RightUse, func(Decision) {})
		if h.Stats().QueryRounds != rounds+1 {
			t.Fatalf("check on just-registered app %s started no round", app)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := h.RegisterApp("a", HostAppConfig{Managers: []wire.NodeID{"m0"}}); err == nil {
		t.Error("re-registering an app succeeded")
	}
	st := h.Stats()
	if st.CacheHits != hits.Load() || st.CacheHits == 0 {
		t.Errorf("Stats().CacheHits = %d, callers saw %d", st.CacheHits, hits.Load())
	}
	// Every metric derived from the hit count reports every hit.
	counted := hostCounter(hh.reg, "wanac_host_checks_total", "cache_hit")
	lat := hostLatency(hh.reg, outcomeCacheHit)
	if reasons := ReasonCounts(hh.reg)[flight.ReasonCacheHit]; counted != st.CacheHits ||
		reasons != counted || lat.Count != counted || lat.Counts[0] != counted || lat.Sum != 0 {
		t.Errorf("of %d hits: checks{cache_hit} %d, reasons{cache_hit} %d, latency{cache_hit} count %d first bucket %d sum %v",
			st.CacheHits, counted, reasons, lat.Count, lat.Counts[0], lat.Sum)
	}
}

// TestCacheHitCountersDerived: a hit bumps one atomic of the host's counts,
// and Stats, wanac_host_checks_total{cache_hit}, its reason twin and the
// cache_hit latency histogram are derived from it when read. Two hosts
// share a registry and callers mix hits with cold checks while a scraper
// reads: after each load phase every view of the hits counted so far is
// the same number.
func TestCacheHitCountersDerived(t *testing.T) {
	policy := Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute}
	reg := telemetry.NewRegistry()
	hosts := []*hotHost{newHotHostOn(t, "h0", reg, policy), newHotHostOn(t, "h1", reg, policy)}
	outcomes := reg.CounterVec("wanac_host_checks_total", "", "outcome")
	hitCounter := outcomes.With("cache_hit")

	// load runs callers on both hosts — each makes hitsEach hits and, after
	// every fourth, a cold check (an unregistered app: denied at once under
	// Host.mu) — while a scraper reads every view of the hit count.
	const callers, hitsEach = 3, 400
	const hitsPerHost, coldPerHost = callers * hitsEach, callers * hitsEach / 4
	load := func() {
		var wg sync.WaitGroup
		for _, hh := range hosts {
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1; i <= hitsEach; i++ {
						hh.h.Check("a", "u", wire.RightUse, func(d Decision) {
							if !d.CacheHit {
								t.Errorf("decision %+v, want a cache hit", d)
							}
						})
						if i%4 == 0 {
							hh.h.Check("ghost", "u", wire.RightUse, func(d Decision) {
								if d.Allowed {
									t.Errorf("decision %+v for an unregistered app", d)
								}
							})
						}
					}
				}()
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wg.Wait()
		}()
		var last uint64
		for scraping := true; scraping; {
			select {
			case <-done:
				scraping = false
			default:
			}
			n := hitCounter.Value()
			if n < last {
				t.Errorf("checks{cache_hit} went from %d to %d", last, n)
			}
			last = n
			hostLatency(reg, outcomeCacheHit)
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}

	// The warm-up of each host was one allowed check.
	var wantHits, wantDenied uint64
	verify := func(phase string) {
		t.Helper()
		var stHits, stChecks, audited uint64
		for _, hh := range hosts {
			st := hh.h.Stats()
			stHits += st.CacheHits
			stChecks += st.Checks
			audited += hh.aud.Decisions()
		}
		if stHits != wantHits || stChecks != audited {
			t.Errorf("%s: Stats() report %d hits of %d made, %d checks against %d audit decisions", phase, stHits, wantHits, stChecks, audited)
		}
		reasons := ReasonCounts(reg)
		lat := hostLatency(reg, outcomeCacheHit)
		if hitCounter.Value() != wantHits || reasons[flight.ReasonCacheHit] != wantHits ||
			lat.Count != wantHits || lat.Counts[0] != wantHits || lat.Sum != 0 {
			t.Errorf("%s: want %d hits counted: checks{cache_hit} %d, reasons{cache_hit} %d, latency{cache_hit} count %d first bucket %d sum %v",
				phase, wantHits, hitCounter.Value(), reasons[flight.ReasonCacheHit], lat.Count, lat.Counts[0], lat.Sum)
		}
		if got := outcomes.With("denied").Value(); got != wantDenied || reasons[flight.ReasonUnregisteredDeny] != wantDenied {
			t.Errorf("%s: checks{denied} %d, reasons{unregistered_deny} %d, want %d", phase, got, reasons[flight.ReasonUnregisteredDeny], wantDenied)
		}
		// The merged views: every outcome's histogram folded into one (the
		// scenario SLOs), and the family rebuilt from the exposition (the
		// fleet rollup).
		wantAll := wantHits + wantDenied + uint64(len(hosts))
		merged := lat
		for o := outcomeCacheHit + 1; o < outcomeCount; o++ {
			var err error
			if merged, err = telemetry.MergeHistograms(merged, hostLatency(reg, o)); err != nil {
				t.Fatal(err)
			}
		}
		var text bytes.Buffer
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf(`wanac_host_checks_total{outcome="cache_hit"} %d`, wantHits),
			fmt.Sprintf(`wanac_host_check_reasons_total{reason="cache_hit"} %d`, wantHits),
			fmt.Sprintf(`wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0001"} %d`, wantHits),
			fmt.Sprintf(`wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="+Inf"} %d`, wantHits),
			`wanac_host_check_latency_seconds_sum{outcome="cache_hit"} 0`,
			fmt.Sprintf(`wanac_host_check_latency_seconds_count{outcome="cache_hit"} %d`, wantHits),
		} {
			if !strings.Contains(text.String(), line+"\n") {
				t.Errorf("%s: exposition lacks %q", phase, line)
			}
		}
		parsed, err := telemetry.ParseMetrics(&text)
		if err != nil {
			t.Fatal(err)
		}
		scraped, err := parsed.HistogramFrom("wanac_host_check_latency_seconds")
		if err != nil {
			t.Fatal(err)
		}
		if merged.Count != wantAll || scraped.Count != wantAll || scraped.Counts[0] != merged.Counts[0] || merged.Counts[0] < wantHits {
			t.Errorf("%s: want %d observations: merged outcomes %d (first bucket %d), scraped family %d (first bucket %d)",
				phase, wantAll, merged.Count, merged.Counts[0], scraped.Count, scraped.Counts[0])
		}
	}

	for _, phase := range []string{"first load", "second load"} {
		load()
		wantHits += 2 * hitsPerHost
		wantDenied += 2 * coldPerHost
		verify(phase)
	}
}

// sinks are what a tracer chain under test ends in or feeds: a journal, a
// registry and a collector.
type sinks struct {
	rec *flight.Recorder
	reg *telemetry.Registry
	col *trace.Collector
}

// TestCacheHitObservationContract: a cache hit is one journal record and,
// for a chain that keeps it, one trace event. A host is wired as each
// deployment wires it — acnode's bridge over a journal tee over its log
// tracer (a collector here), bench's bridge over a tee that ends the chain,
// the simulator's bridge over the collector its flight dump is read from,
// and its bridge over trace.Nop when it keeps no trace — with the journal
// taking its decisions and metrics attached; a quorum allow warms the cache,
// then it makes N hits. They must leave exactly N decision records and no
// other journal record, N cache-hit events and no access-allowed at the end
// of a chain that ends in the collector, and the hit's metric families
// reading exactly what they read when a hit was two trace events, the
// cache-hit trace-event row included although the bridge counts no hits.
func TestCacheHitObservationContract(t *testing.T) {
	const hits = 30
	// The non-zero samples of the hit's families after the warm-up's quorum
	// allow and 30 hits, as they read when a hit also emitted
	// access-allowed/"cached": every other sample of
	// wanac_host_checks_total, wanac_host_check_reasons_total and
	// wanac_host_check_latency_seconds reads 0.
	const want = `wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0001"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0002"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0004"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0008"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0016"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0032"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0064"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0128"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0256"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.0512"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.1024"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.2048"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.4096"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="0.8192"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="1.6384"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="3.2768"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="6.5536"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="13.1072"} 1
wanac_host_check_latency_seconds_bucket{outcome="allowed",le="+Inf"} 1
wanac_host_check_latency_seconds_count{outcome="allowed"} 1
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0001"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0002"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0004"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0008"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0016"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0032"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0064"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0128"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0256"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.0512"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.1024"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.2048"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.4096"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="0.8192"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="1.6384"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="3.2768"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="6.5536"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="13.1072"} 30
wanac_host_check_latency_seconds_bucket{outcome="cache_hit",le="+Inf"} 30
wanac_host_check_latency_seconds_count{outcome="cache_hit"} 30
wanac_host_check_reasons_total{reason="cache_hit"} 30
wanac_host_check_reasons_total{reason="quorum_allow"} 1
wanac_host_checks_total{outcome="allowed"} 1
wanac_host_checks_total{outcome="cache_hit"} 30
wanac_trace_events_total{type="cache-hit"} 30
`
	for _, tc := range []struct {
		name  string
		chain func(sinks) trace.Tracer
		tail  bool // the chain ends in the collector
	}{
		{"acnode", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, flight.Tee(s.rec, s.col)) }, true},
		{"bench", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, flight.Tee(s.rec, nil)) }, false},
		{"sim", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, s.col) }, true},
		{"sim-notrace", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, trace.Nop{}) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			rec, reg, col := flight.NewRecorder("h0", 64, env.Now), telemetry.NewRegistry(), trace.NewCollector()
			h := NewHost("h0", env, tc.chain(sinks{rec, reg, col}), nil)
			if err := h.RegisterApp("a", HostAppConfig{
				Managers: []wire.NodeID{"m0", "m1", "m2"},
				Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute},
			}); err != nil {
				t.Fatal(err)
			}
			InstrumentHost(reg, rec, h)
			h.Check("a", "u", wire.RightUse, func(Decision) {})
			answerRound(h, lastRound(t, env), true)

			totalBefore, decisionsBefore := rec.Total(), rec.Decisions()
			col.Reset()
			made := 0
			for i := 0; i < hits; i++ {
				env.advance(time.Millisecond)
				h.Check("a", "u", wire.RightUse, func(d Decision) {
					if d.CacheHit {
						made++
					}
				})
			}
			if made != hits {
				t.Fatalf("%d cache hits, want %d", made, hits)
			}
			if n := rec.Decisions() - decisionsBefore; n != hits || rec.Total()-totalBefore != hits {
				t.Errorf("%d hits left %d decision records of %d journal records", hits, n, rec.Total()-totalBefore)
			}
			if tc.tail && (col.Count(trace.EventCacheHit) != hits || col.Count(trace.EventAccessAllowed) != 0 || len(col.Events()) != hits) {
				t.Errorf("%d hits reached the collector as %d cache-hit and %d access-allowed of %d events",
					hits, col.Count(trace.EventCacheHit), col.Count(trace.EventAccessAllowed), len(col.Events()))
			}
			var text bytes.Buffer
			if err := reg.WritePrometheus(&text); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(text.String(), "\n") {
				for _, family := range []string{"wanac_host_checks_total{", "wanac_host_check_reasons_total{",
					"wanac_host_check_latency_seconds_", `wanac_trace_events_total{type="cache-hit"}`} {
					if strings.HasPrefix(line, family) && !strings.HasSuffix(line, " 0\n") {
						got.WriteString(line)
					}
				}
			}
			if got.String() != want {
				t.Errorf("the hit's families read\n%s\nwant\n%s", got.String(), want)
			}
		})
	}
}

// emitCounter counts the events a host hands its tracer, which it wraps,
// and drops what the tracer drops.
type emitCounter struct {
	inner trace.Tracer
	hits  int
}

func (c *emitCounter) Drops(t trace.EventType) bool { return trace.Drops(c.inner, t) }

func (c *emitCounter) Emit(e trace.Event) {
	if e.Type == trace.EventCacheHit {
		c.hits++
	}
	c.inner.Emit(e)
}

// TestCacheHitEmission: a host builds a cache hit's event only for a chain
// that keeps it. For N hits a chain that drops hits — trace.Nop, a journal
// tee ending the chain or ending in Nop, the event bridge over either —
// receives no Emit, and one that keeps them — anything ending in a
// collector — receives exactly N, which reach the collector.
func TestCacheHitEmission(t *testing.T) {
	const hits = 20
	for _, tc := range []struct {
		name  string
		chain func(sinks) trace.Tracer
		keeps bool
	}{
		{"nop", func(sinks) trace.Tracer { return trace.Nop{} }, false},
		{"tee", func(s sinks) trace.Tracer { return flight.Tee(s.rec, nil) }, false},
		{"tee-nop", func(s sinks) trace.Tracer { return flight.Tee(s.rec, trace.Nop{}) }, false},
		{"bridge-nop", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, trace.Nop{}) }, false},
		{"bridge-tee", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, flight.Tee(s.rec, nil)) }, false},
		{"collector", func(s sinks) trace.Tracer { return s.col }, true},
		{"tee-collector", func(s sinks) trace.Tracer { return flight.Tee(s.rec, s.col) }, true},
		{"bridge-collector", func(s sinks) trace.Tracer { return telemetry.InstrumentTracer(s.reg, s.col) }, true},
		{"bridge-tee-collector", func(s sinks) trace.Tracer {
			return telemetry.InstrumentTracer(s.reg, flight.Tee(s.rec, s.col))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			col := trace.NewCollector()
			c := &emitCounter{inner: tc.chain(sinks{flight.NewRecorder("h0", 64, env.Now), telemetry.NewRegistry(), col})}
			h := NewHost("h0", env, c, nil)
			if err := h.RegisterApp("a", HostAppConfig{
				Managers: []wire.NodeID{"m0", "m1", "m2"},
				Policy:   Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute},
			}); err != nil {
				t.Fatal(err)
			}
			h.Check("a", "u", wire.RightUse, func(Decision) {})
			answerRound(h, lastRound(t, env), true)
			for i := 0; i < hits; i++ {
				h.Check("a", "u", wire.RightUse, func(Decision) {})
			}
			if st := h.Stats(); st.CacheHits != hits {
				t.Fatalf("%d cache hits, want %d", st.CacheHits, hits)
			}
			want := 0
			if tc.keeps {
				want = hits
			}
			if c.hits != want || col.Count(trace.EventCacheHit) != want {
				t.Errorf("%d hits: the chain received %d cache-hit events and its collector kept %d, want %d",
					hits, c.hits, col.Count(trace.EventCacheHit), want)
			}
		})
	}
}

// TestResetKeepsTableHandles: a host probes the table its app's RegisterApp
// took from the cache, and Reset empties that table in place. While callers
// hammer a warm key, each of several cycles resets the host and re-grants
// the key: no check that starts after Reset returns may be served a hit
// until the re-grant, and after it the key hits again through the same
// handle.
func TestResetKeepsTableHandles(t *testing.T) {
	hh := newHotHost(t, Policy{CheckQuorum: 2, QueryTimeout: time.Second, MaxAttempts: 2, Te: time.Minute})
	h := hh.h
	// phase is even while the key may hit and odd from a Reset's return
	// until its re-grant begins; hits counts the hits of checks started and
	// decided in the current even phase. A hit decided in the odd phase it
	// started in probed the table after Reset returned and before the
	// re-grant could put the entry back.
	var phase, hits atomic.Uint64
	var stop atomic.Bool
	const callers, cycles = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				p := phase.Load()
				h.Check("a", "u", wire.RightUse, func(d Decision) {
					switch {
					case !d.CacheHit || phase.Load() != p:
					case p%2 == 1:
						t.Error("cache hit for a check started after Reset returned, before the re-grant")
					default:
						hits.Add(1)
					}
				})
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		waitFor("hits", func() bool { return hits.Load() >= 500 })
		rounds := h.Stats().QueryRounds
		h.Reset()
		phase.Add(1)
		hits.Store(0)
		// A check that misses after the reset starts a round, onto which
		// the later ones coalesce.
		waitFor("a round after the reset", func() bool { return h.Stats().QueryRounds > rounds })
		phase.Add(1)
		hh.answer(t, true)
	}
	waitFor("hits after the last re-grant", func() bool { return hits.Load() >= 500 })
	stop.Store(true)
	wg.Wait()
	if st := h.Stats(); st.CacheLen != 1 {
		t.Errorf("cache holds %d entries after the last re-grant, want 1", st.CacheLen)
	}
}
