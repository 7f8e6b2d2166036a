package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wanac/internal/core"
	"wanac/internal/scenario"
	"wanac/internal/wire"
)

// opTimeout is the longest any single operation may take before it counts
// as failed (it is also the hosts' query timeout, so on TCP an operation
// that needed a retry round has failed by this rule).
const opTimeout = 2 * time.Second

// adminUsers is how many users the revocation loop rotates through. They
// hold the use right but are never drawn by the check callers, so a check
// and a revocation of one user are never in flight together.
const adminUsers = 64

// liveWorkload describes one live workload; see README.md for the why.
type liveWorkload struct {
	name       string
	network    string
	te         time.Duration
	users      []wire.UserID // the check population, by popularity rank
	authorized int           // users[:authorized] hold the use right
	draws      []uint32      // seeded rank draws; nil visits users cyclically
	hosts      int           // 1: every check on h0; 2: alternate hosts
	split      bool          // caller c keeps to host c mod 2 (both warmed), so callers share no lock
	syncHit    bool          // decisions arrive inside the Check call (cache hits)
	wantHit    int           // 1: every check must hit, 0: must miss, -1: either
	churn      bool          // the admin loop runs beside the checks
	adminEvery time.Duration // the admin loop starts one cycle per this interval
	wide       int           // checks in flight per caller in the full-load phase
	wideAll    bool          // full-load phase uses nproc callers (else one)
	admins     []wire.UserID
}

func userIDs(prefix string, n int) []wire.UserID {
	out := make([]wire.UserID, n)
	for i := range out {
		out[i] = wire.UserID(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// zipfDraws returns n seeded Zipf(s) ranks over [0, users).
func zipfDraws(seed int64, s float64, users, n int) []uint32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(users-1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
}

// Draw sequences are powers of two long (the callers index them with a
// mask) and long enough that no caller comes round to the same position
// within the workload's Te: a sequence that repeats sooner turns every
// revisit into a cache hit, and whether it does would depend on the speed of
// the machine.
const (
	hotDraws   = 1 << 18
	churnDraws = 1 << 22 // about 25 s of churn-udp at full load
)

func newLiveWorkload(name string, seed int64) (*liveWorkload, error) {
	w := &liveWorkload{name: name, admins: userIDs("a", adminUsers)}
	switch name {
	case "cached-hot":
		w.network, w.te = "tcp", time.Hour
		w.users, w.authorized = userIDs("u", 256), 256
		w.draws = zipfDraws(seed, 1.2, 256, hotDraws)
		w.hosts, w.syncHit, w.wantHit = 1, true, 1
		// One caller per host: callers on one host take turns on Host.mu, and
		// how two threads of a shared box hand a lock over moves the rate by
		// twice what the work itself does. The shared-host rate is the
		// per-layer row bench.checks_per_s_one_host.
		w.wide, w.wideAll, w.split = 1, true, true
	case "cold-tcp":
		w.network, w.te = "tcp", 200*time.Millisecond
		w.users, w.authorized = userIDs("u", 65536), 65536
		w.hosts, w.wantHit = 1, 0
		// 64 in flight per caller: at 16 the deployment is bound by wake-up
		// latency, not by work, and its rate moves by a third between runs.
		w.wide, w.wideAll = 64, true
	case "churn-udp":
		sc, err := scenario.Lookup("zipf-flood")
		if err != nil {
			return nil, err
		}
		// zipf-flood's shape (2M users, 256 authorized, its Zipf exponent)
		// scaled to what ten seconds of loopback checks can revisit.
		const users, authorized = 100_000, 4096
		w.network, w.te = "udp", 2*time.Second
		w.users, w.authorized = userIDs("u", users), authorized
		w.draws = zipfDraws(seed, sc.Population.ZipfS, users, churnDraws)
		w.hosts, w.wantHit, w.churn = 2, -1, true
		w.wide = 8
		// The admin loop is paced, not greedy: two closed loops sharing the
		// processors split them differently from run to run, and a lost
		// datagram that stalls one hands its share to the other.
		w.adminEvery = 5 * time.Millisecond
	default:
		return nil, fmt.Errorf("unknown live workload %q", name)
	}
	return w, nil
}

// next is caller c's seq-th check: which user, on which host, and what the
// bench's own ACL model says the answer is.
//
// base is how many checks earlier windows issued: a cyclic visit carries on
// where the last window stopped, so no entry is revisited early.
func (w *liveWorkload) next(base uint64, c, callers int, seq uint64, oneHost bool) (wire.UserID, int, bool) {
	var rank int
	if w.draws != nil {
		off := uint64(c) * uint64(len(w.draws)) / uint64(callers)
		rank = int(w.draws[(base+off+seq)&uint64(len(w.draws)-1)])
	} else {
		rank = int((base + uint64(c) + seq*uint64(callers)) % uint64(len(w.users)))
	}
	host := 0
	switch {
	case w.hosts == 2:
		host = int(seq & 1)
	case w.split && !oneHost:
		host = c % numHosts
	}
	return w.users[rank], host, rank < w.authorized
}

// flushTracker is the revocation workload's flush clock: armed with the
// (user, UpdateSeq) of the revocation in flight, it records when each host
// has applied a RevokeNotice carrying exactly that pair. The bench is the
// only admin, so it knows the sequence number its operation got; a
// straggler notice from an earlier revocation never matches.
type flushTracker struct {
	mu    sync.Mutex
	armed bool
	user  wire.UserID
	seq   wire.UpdateSeq
	at    [numHosts]time.Time
	done  chan struct{}
}

func (t *flushTracker) arm(user wire.UserID, seq wire.UpdateSeq) {
	t.mu.Lock()
	t.armed, t.user, t.seq = true, user, seq
	t.at = [numHosts]time.Time{}
	select {
	case <-t.done:
	default:
	}
	t.mu.Unlock()
}

func (t *flushTracker) notice(host uint8, m wire.RevokeNotice, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := int(host) - numManagers
	if !t.armed || m.User != t.user || m.Seq != t.seq || !t.at[h].IsZero() {
		return
	}
	t.at[h] = at
	for _, x := range t.at {
		if x.IsZero() {
			return
		}
	}
	t.armed = false
	t.done <- struct{}{}
}

// wait blocks until both hosts have flushed and returns the later time.
func (t *flushTracker) wait(timeout time.Duration) (time.Time, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-t.done:
	case <-timer.C:
		t.mu.Lock()
		t.armed = false
		t.mu.Unlock()
		return time.Time{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.at[0]
	if t.at[1].After(last) {
		last = t.at[1]
	}
	return last, true
}

// liveRun is one deployment under one workload.
type liveRun struct {
	w       *liveWorkload
	d       *deployment
	tr      *tracer // nil outside the traced window
	tracker flushTracker
	issued  [numManagers]uint64 // admin ops submitted per origin = its counter
	cycles  int
	base    uint64 // checks issued by earlier windows
	stop    atomic.Bool
}

// patience is how long the admin loop waits for one operation. Over a
// datagram transport a lost message is retransmitted after 2 s, which is
// counted, not failed.
func (r *liveRun) patience() time.Duration {
	if r.w.network == "udp" {
		return 3 * opTimeout
	}
	return opTimeout
}

// setup deploys and warms: every connection dialled, every manager pair
// exchanged an update, and (cached-hot) the population in the hosts' caches.
func setupLive(w *liveWorkload) (*liveRun, error) {
	r := &liveRun{w: w}
	r.tracker.done = make(chan struct{}, 1)
	seeded := append(append([]wire.UserID(nil), w.users[:w.authorized]...), w.admins...)
	d, err := deploy(w.network, w.te, seeded, r.tracker.notice)
	if err != nil {
		return nil, err
	}
	r.d = d
	var adm adminResult
	for i := 0; i < 2*numManagers; i++ {
		r.adminCycle(&adm, false)
	}
	if adm.failed > 0 {
		d.close()
		return nil, fmt.Errorf("%s: warm-up admin cycle failed: %s", w.name, adm.why)
	}
	if w.syncHit {
		s := newSlot(r, make(chan *slot, 1))
		for h := range d.hosts {
			if h > 0 && !w.split {
				break
			}
			for _, u := range w.users {
				s.issue(u, h, true)
				if !s.await() || !s.got.Allowed {
					d.close()
					return nil, fmt.Errorf("%s: warming %s on h%d failed", w.name, u, h)
				}
			}
		}
	}
	return r, nil
}

// slot is one check in flight. Its callback is allocated once, so the
// bench adds no allocation per check.
type slot struct {
	r     *liveRun
	back  chan *slot // nil for callers that get the decision inside Check
	host  int
	want  bool
	used  bool
	start time.Time
	done  time.Time
	got   core.Decision
	flow  *flow
	cb    func(core.Decision)
}

func newSlot(r *liveRun, back chan *slot) *slot {
	s := &slot{r: r, back: back}
	if back == nil {
		s.cb = func(d core.Decision) {
			s.got = d
			s.endFlow()
		}
	} else {
		s.cb = func(d core.Decision) {
			s.done = time.Now()
			s.got = d
			s.endFlow()
			s.back <- s
		}
	}
	return s
}

func (s *slot) endFlow() {
	if s.flow != nil {
		s.flow.t.endFlow(s.flow, s.r.d.hosts[s.host].seam.cur.Load())
	}
}

func (s *slot) issue(user wire.UserID, host int, want bool) {
	r := s.r
	s.host, s.want, s.used, s.flow, s.got = host, want, true, nil, core.Decision{}
	h := r.d.hosts[host]
	if s.back != nil {
		s.start = time.Now()
	}
	t := r.tr
	if t == nil {
		h.host.Check(benchApp, user, wire.RightUse, s.cb)
		return
	}
	var id int32
	if s.flow = t.beginFlow(spCheck, h.seam.node, checkC); s.flow != nil {
		id = t.beginCall(spCheckCall, h.seam.node, h.seam.node, s.flow, t.rootStart(s.flow))
	}
	h.seam.enter(id)
	h.host.Check(benchApp, user, wire.RightUse, s.cb)
	t.endCall(id, s.flow)
	h.seam.exit()
}

// await waits for the decision of an issued check.
func (s *slot) await() bool {
	timer := time.NewTimer(s.r.patience())
	defer timer.Stop()
	select {
	case <-s.back:
		return true
	case <-timer.C:
		return false
	}
}

// verdict judges a finished check against the model and the workload's
// cache expectation; "" means it passed.
func (s *slot) verdict() string {
	switch {
	case s.got.Allowed != s.want || s.got.DefaultAllowed:
		return fmt.Sprintf("a check decided allowed=%v (default=%v) where the model says %v", s.got.Allowed, s.got.DefaultAllowed, s.want)
	case s.r.w.wantHit == 1 && !s.got.CacheHit:
		return "a check missed the cache in a workload that must always hit"
	case s.r.w.wantHit == 0 && s.got.CacheHit:
		return "a check hit the cache in a workload that must never hit"
	}
	return ""
}

// tally is what one caller counted; merged after the window.
type tally struct {
	counts    [slices]uint64
	total     uint64
	issued    uint64 // how far into its sequence the caller got
	failed    uint64
	why       string // the first failure
	latNS     []int64
	undrained int
}

func (t *tally) fail(why string) {
	t.failed++
	if t.why == "" {
		t.why = why
	}
}

const maxLatSamples = 1 << 18

func (t *tally) add(doneAt time.Time, start time.Time, dur time.Duration, n uint64) {
	t.total += n
	if i := int(doneAt.Sub(start) * slices / dur); i >= 0 && i < slices {
		t.counts[i] += n
	}
}

func (t *tally) sample(ns int64) {
	if len(t.latNS) < cap(t.latNS) {
		t.latNS = append(t.latNS, ns)
	}
}

// asyncCaller keeps inflight checks outstanding until the window closes,
// then waits for the stragglers.
func (r *liveRun) asyncCaller(c int, win window, start time.Time, out *tally) {
	callers, inflight, dur := win.callers, win.inflight, win.dur
	back := make(chan *slot, inflight)
	for i := 0; i < inflight; i++ {
		back <- newSlot(r, back)
	}
	finish := func(s *slot) {
		out.add(s.done, start, dur, 1)
		lat := s.done.Sub(s.start)
		switch why := s.verdict(); {
		case why != "":
			out.fail(why)
		case lat >= opTimeout && r.w.network == "tcp":
			// Over a datagram transport a lost query costs a retry round;
			// that is counted (core.host.query_timeouts), not failed.
			out.fail(fmt.Sprintf("a check took %v", lat))
		case inflight == 1:
			out.sample(int64(lat))
		}
	}
	outstanding := 0
	for seq := uint64(0); ; seq++ {
		s := <-back
		if s.used {
			outstanding--
			finish(s)
		}
		if time.Since(start) >= dur || r.stop.Load() {
			break
		}
		user, host, want := r.w.next(r.base, c, callers, seq, win.oneHost)
		s.issue(user, host, want)
		out.issued = seq + 1
		outstanding++
	}
	timer := time.NewTimer(3 * opTimeout)
	defer timer.Stop()
	for outstanding > 0 {
		select {
		case s := <-back:
			outstanding--
			finish(s)
		case <-timer.C:
			out.undrained = outstanding
			out.failed += uint64(outstanding)
			if out.why == "" {
				out.why = fmt.Sprintf("%d checks never decided", outstanding)
			}
			return
		}
	}
}

// syncBlock is how many cache-hit checks one clock reading covers.
const syncBlock = 64

// syncCaller is the cached path: the decision is delivered inside Check, so
// the caller is a plain loop. Time is read once per block of checks.
func (r *liveRun) syncCaller(c int, win window, start time.Time, out *tally) {
	callers, dur := win.callers, win.dur
	s := newSlot(r, nil)
	block := syncBlock
	if r.tr != nil {
		block = 1
	}
	seq := uint64(0)
	for {
		t0 := time.Now()
		if t0.Sub(start) >= dur || r.stop.Load() {
			out.issued = seq
			return
		}
		for i := 0; i < block; i++ {
			user, host, want := r.w.next(r.base, c, callers, seq, win.oneHost)
			seq++
			s.issue(user, host, want)
			if why := s.verdict(); why != "" {
				out.fail(why)
			}
		}
		t1 := time.Now()
		out.add(t1, start, dur, uint64(block))
		out.sample(int64(t1.Sub(t0)) / int64(block))
	}
}

// adminResult is what the revocation loop measured.
type adminResult struct {
	quorumNS, flushNS []int64
	ops               uint64 // admin operations submitted (revokes and re-grants)
	attempted, failed uint64
	unflushed         uint64 // revocations whose notices did not arrive in time (datagram loss)
	why               string
}

func (a *adminResult) fail(format string, args ...any) {
	a.failed++
	if a.why == "" {
		a.why = fmt.Sprintf(format, args...)
	}
}

// submit issues one admin operation through manager origin and waits for
// its update quorum. It returns when Submit was called and when the reply
// arrived.
func (r *liveRun) submit(origin int, op wire.Op, user wire.UserID, f *flow) (t0, tq time.Time, err error) {
	m := r.d.mgrs[origin]
	reply := make(chan wire.AdminReply, 1)
	admin := wire.AdminOp{Op: op, App: benchApp, User: user, Right: wire.RightUse, Issuer: benchAdmin}
	t0 = time.Now()
	if t := r.tr; t == nil {
		m.mgr.Submit(admin, func(rep wire.AdminReply) { reply <- rep })
	} else {
		var id int32
		if f != nil {
			id = t.beginCall(spSubmit, m.seam.node, m.seam.node, f, t.rootStart(f))
		}
		m.seam.enter(id)
		m.mgr.Submit(admin, func(rep wire.AdminReply) { reply <- rep })
		t.endCall(id, f)
		m.seam.exit()
	}
	r.issued[origin]++
	timer := time.NewTimer(r.patience())
	defer timer.Stop()
	select {
	case rep := <-reply:
		tq = time.Now()
		switch {
		case rep.Err != "":
			err = errors.New(rep.Err)
		case !rep.QuorumReached:
			err = errors.New("no update quorum")
		}
	case <-timer.C:
		err = errors.New("timed out")
	}
	return t0, tq, err
}

// adminCycle is one revoke -> wait until both hosts have flushed -> re-grant
// round on the next admin user, through the next manager. Both hosts are
// made to hold the user first, and must deny it after the flush.
func (r *liveRun) adminCycle(res *adminResult, sample bool) {
	user := r.w.admins[r.cycles%len(r.w.admins)]
	origin := r.cycles % numManagers
	r.cycles++
	s := newSlot(r, make(chan *slot, 1))
	check := func(want bool, stage string) {
		for h := range r.d.hosts {
			res.attempted++
			s.issue(user, h, want)
			if !s.await() {
				res.fail("%s check of %s on h%d timed out", stage, user, h)
			} else if s.got.Allowed != want {
				res.fail("%s check of %s on h%d: allowed=%v", stage, user, h, s.got.Allowed)
			}
		}
	}
	check(true, "pre-revoke")

	res.attempted++
	res.ops++
	seq := wire.UpdateSeq{Origin: r.d.mgrs[origin].id, Counter: r.issued[origin] + 1}
	r.tracker.arm(user, seq)
	var f *flow
	if r.tr != nil {
		f = r.tr.beginFlow(spRevoke, r.d.mgrs[origin].seam.node, 0)
	}
	t0, tq, err := r.submit(origin, wire.OpRevoke, user, f)
	if err != nil {
		res.fail("revoke of %s via m%d: %v", user, origin, err)
	}
	last, flushed := r.tracker.wait(250 * time.Millisecond)
	if f != nil {
		if flushed {
			r.tr.endFlowAt(f, int64(last.Sub(r.tr.epoch)))
		} else {
			r.tr.endFlowAt(f, r.tr.now())
		}
	}
	switch {
	case !flushed:
		res.unflushed++
		if r.w.network == "tcp" {
			res.fail("revocation of %s via m%d never flushed both hosts", user, origin)
		}
	case err == nil:
		if sample {
			res.quorumNS = append(res.quorumNS, int64(tq.Sub(t0)))
			res.flushNS = append(res.flushNS, int64(last.Sub(t0)))
		}
		check(false, "post-flush")
	}

	res.attempted++
	res.ops++
	f = nil
	if r.tr != nil {
		f = r.tr.beginFlow(spGrant, r.d.mgrs[origin].seam.node, 0)
	}
	if _, _, err := r.submit(origin, wire.OpAdd, user, f); err != nil {
		res.fail("re-grant of %s via m%d: %v", user, origin, err)
	}
	if f != nil {
		r.tr.endFlowAt(f, r.tr.now())
	}
}

// window is one timed stretch of load.
type window struct {
	callers, inflight int
	dur               time.Duration
	admin             bool // run the revocation loop beside the checks
	oneHost           bool // every caller checks on h0, whatever the workload says
	latencies         bool // keep per-check latencies (single-caller windows)
	adminCycles       int  // or: run this many cycles with no checks (dur ignored)
}

type windowResult struct {
	elapsed    time.Duration
	checks     uint64
	sliceRates []float64 // checks per second, per slice
	latUS      []float64 // ascending; single-caller windows only
	attempted  uint64
	failed     uint64
	why        string
	delta      counters
	cost       cost
	adm        adminResult
}

func (wr *windowResult) rate() float64 { return ratio(float64(wr.checks), wr.elapsed.Seconds()) }

// run drives one window and returns what it measured, including the delta
// of every node's public counters across it.
func (r *liveRun) run(win window) windowResult {
	var res windowResult
	r.stop.Store(false)
	before := r.d.counters()
	mark := markCost()
	start := time.Now()

	if win.adminCycles > 0 {
		for i := 0; i < win.adminCycles && !(r.tr != nil && r.tr.full.Load()); i++ {
			r.adminCycle(&res.adm, true)
		}
	} else {
		tallies := make([]tally, win.callers)
		var wg sync.WaitGroup
		for c := range tallies {
			if win.latencies {
				tallies[c].latNS = make([]int64, 0, maxLatSamples)
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if r.w.syncHit {
					r.syncCaller(c, win, start, &tallies[c])
				} else {
					r.asyncCaller(c, win, start, &tallies[c])
				}
			}(c)
		}
		adminDone := make(chan struct{})
		if win.admin {
			go func() {
				defer close(adminDone)
				// Cycle k starts k*adminEvery into the window; a cycle that
				// overran (a lost datagram) skips the starts it missed.
				every := r.w.adminEvery
				for k := time.Duration(0); ; k++ {
					at := time.Since(start)
					if due := k * every; at < due {
						time.Sleep(due - at)
					} else if every > 0 {
						k = at / every
					}
					if time.Since(start) >= win.dur || r.stop.Load() {
						break
					}
					r.adminCycle(&res.adm, true)
				}
			}()
		} else {
			close(adminDone)
		}
		watchDone := make(chan struct{})
		if t := r.tr; t != nil {
			// The traced window also ends when the span buffer is full.
			go func() {
				defer close(watchDone)
				for time.Since(start) < win.dur && !r.stop.Load() {
					if t.full.Load() {
						r.stop.Store(true)
					}
					time.Sleep(time.Millisecond)
				}
			}()
		} else {
			close(watchDone)
		}
		wg.Wait()
		r.stop.Store(true)
		<-adminDone
		<-watchDone
		var counts [slices]uint64
		var lat []int64
		var furthest uint64
		for i := range tallies {
			t := &tallies[i]
			furthest = max(furthest, t.issued)
			res.checks += t.total
			res.failed += t.failed
			for s, n := range t.counts {
				counts[s] += n
			}
			lat = append(lat, t.latNS...)
			if res.why == "" {
				res.why = t.why
			}
		}
		// The next window starts past what the caller that got furthest has
		// visited, so no caller comes back to an entry inside its Te.
		r.base += furthest * uint64(win.callers)
		res.elapsed = time.Since(start)
		if res.elapsed > win.dur {
			res.elapsed = win.dur // the tail past the window only drained stragglers
		}
		per := win.dur.Seconds() / slices
		for _, n := range counts {
			res.sliceRates = append(res.sliceRates, float64(n)/per)
		}
		res.latUS = usAscending(lat)
		res.attempted = res.checks
	}
	if win.adminCycles > 0 {
		res.elapsed = time.Since(start)
		r.quiesce() // trailing acknowledgements stay out of the next window
	}
	res.cost = mark.since()
	res.delta = r.d.counters().sub(before)
	res.attempted += res.adm.attempted
	res.failed += res.adm.failed
	if res.why == "" {
		res.why = res.adm.why
	}
	if r.w.network == "tcp" && res.delta.net.Drops > 0 {
		res.failed += res.delta.net.Drops
		res.why = fmt.Sprintf("%d frames dropped on TCP", res.delta.net.Drops)
	}
	return res
}

// trace attaches t to every seam, or with nil detaches the tracer and waits
// until nothing is recording any more: trailing traffic has drained and every
// handler that entered a node while traced has left it.
func (r *liveRun) trace(t *tracer) {
	r.tr = t
	r.d.attach(t)
	if t != nil {
		return
	}
	r.quiesce()
	for _, n := range r.d.nodes() {
		n.seam.enter(0)
		n.seam.exit()
	}
}

// quiesce waits until no node has sent anything for a few milliseconds, so
// trailing acknowledgements of set-up traffic stay out of the next window.
func (r *liveRun) quiesce() {
	last := r.d.counters().net.Sends
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		now := r.d.counters().net.Sends
		if now == last {
			return
		}
		last = now
	}
}

func nproc() int { return runtime.GOMAXPROCS(0) }
