package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wanac"
	"wanac/internal/core"
	"wanac/internal/wire"
)

// This file is the tracing seam. Nothing inside the program is touched: the
// bench hands every protocol node a core.Env that wraps its Transport (times
// Send, counts SetTimer) and installs a netcore.Handler in front of it
// (times HandleMessage per message type). With no tracer attached both are
// one nil check and a call.
//
// A span is {name, node, start, end, parent, id, flow}. A flow is one check
// or one admin operation; its root span is opened by the workload. A Send
// belongs to the span its node is executing (while traced, one call at a
// time enters a node, so that is unambiguous); the message it carries is
// remembered by its identity — wire.Query.Trace and nonce, or the UpdateSeq —
// so the receiving node's handler span joins the same flow.

type spanKind uint8

const (
	spCheck  spanKind = iota // root: Check call -> the handler that decided it returned
	spRevoke                 // root: Submit(revoke) -> last host applied the notice
	spGrant                  // root: Submit(add) -> quorum reply
	spCheckCall
	spSubmit
	spQuorumWait     // interval: first -> C-th response arrival
	spHandleResponse // from here on every span has a peer
	spHandleNotice
	spHandleQuery
	spHandleUpdate
	spHandleAck
	spHandleRevokeAck
	spSend
	spTransitH2M
	spTransitM2H
	spTransitM2M
	spKinds
)

var spanNames = [spKinds]string{
	"check", "revoke", "grant",
	"core.host.check_call", "core.manager.submit", "core.host.quorum_wait",
	"core.host.handle_response", "core.host.handle_notice", "core.manager.handle_query",
	"core.manager.handle_update", "core.manager.handle_ack", "core.manager.handle_revoke_ack",
	"netcore.send", "transit.h2m", "transit.m2h", "transit.m2m",
}

func (k spanKind) root() bool { return k <= spGrant }

// span is 32 bytes so a few hundred thousand fit a preallocated slice.
type span struct {
	start, end int64 // ns since the tracer's epoch; end 0 while open
	parent     int32 // span id (index+1); 0 = none
	flow       int32 // id of the flow's root span
	kind       spanKind
	node, peer uint8 // node codes; peer is the other end of a send/transit/handle
}

// flow is one traced check or admin operation.
type flow struct {
	t         *tracer
	root      int32
	closeWith int32 // open call span whose end also ends the root
	closed    bool
	responses int   // check flows: responses seen so far
	firstResp int64 // arrival of the first one
	quorum    int
}

// msgKey identifies one message on one link.
type msgKey struct {
	from, to, tag, origin uint8
	num                   uint64 // nonce, or the UpdateSeq counter
	user                  wire.UserID
}

type sentRecord struct {
	at   int64 // when Send returned
	flow *flow
}

type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	full  atomic.Bool

	mu     sync.Mutex
	flowOf map[int32]*flow // by root span id
	sent   map[msgKey]sentRecord
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, capacity),
		flowOf: make(map[int32]*flow),
		sent:   make(map[msgKey]sentRecord),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// alloc reserves a span slot; 0 when the buffer is full.
func (t *tracer) alloc(s span) int32 {
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		t.full.Store(true)
		return 0
	}
	t.spans[i-1] = s
	return int32(i)
}

// recorded returns the spans written so far, with every span that did not
// stay inside its flow's root (a straggler: an acknowledgement handled after
// the operation was over) detached from it. Such a span keeps its flow.
func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	spans := t.spans[:n]
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 {
			continue
		}
		if p := &spans[s.parent-1]; p.kind.root() && (p.end == 0 || s.start < p.start || s.end > p.end) {
			s.parent = 0
		}
	}
	return spans
}

// beginFlow opens a root span; nil when the buffer is full (the operation
// then runs untraced).
func (t *tracer) beginFlow(kind spanKind, node uint8, quorum int) *flow {
	if t.full.Load() {
		return nil
	}
	id := t.alloc(span{start: t.now(), kind: kind, node: node})
	if id == 0 {
		return nil
	}
	t.spans[id-1].flow = id
	f := &flow{t: t, root: id, quorum: quorum}
	t.mu.Lock()
	t.flowOf[id] = f
	t.mu.Unlock()
	return f
}

// rootStart is when f's root began; the call that starts a flow begins its
// own span there, so the tracer's bookkeeping between the two is nobody's
// self time.
func (t *tracer) rootStart(f *flow) int64 { return t.spans[f.root-1].start }

// endFlow closes f's root when the span the node is executing ends — the
// handler that delivered the decision, or the Check call itself on a cache
// hit — so that span stays inside the root; with no such span, now.
func (t *tracer) endFlow(f *flow, current int32) {
	now := t.now()
	t.mu.Lock()
	if current != 0 {
		f.closeWith = current
	} else {
		t.spans[f.root-1].end = now
		f.closed = true
	}
	t.mu.Unlock()
}

// endFlowAt closes f's root at a time the caller measured.
func (t *tracer) endFlowAt(f *flow, at int64) {
	t.mu.Lock()
	t.spans[f.root-1].end = at
	f.closed = true
	t.mu.Unlock()
}

// beginCall opens a call span (a Check, a Submit, a HandleMessage) in f.
func (t *tracer) beginCall(kind spanKind, node, peer uint8, f *flow, start int64) int32 {
	if f == nil {
		return 0
	}
	t.mu.Lock()
	var parent int32
	if !f.closed {
		parent = f.root
	}
	t.mu.Unlock()
	return t.alloc(span{start: start, parent: parent, flow: f.root, kind: kind, node: node, peer: peer})
}

func (t *tracer) endCall(id int32, f *flow) int64 {
	now := t.now()
	if id == 0 {
		return now
	}
	t.spans[id-1].end = now
	t.mu.Lock()
	if f.closeWith == id {
		t.spans[f.root-1].end = now
		f.closed = true
		f.closeWith = 0
	}
	t.mu.Unlock()
	return now
}

// messageKey extracts a message's identity and the span kind of its handler.
func messageKey(from, to uint8, msg wire.Message) (msgKey, spanKind, bool) {
	k := msgKey{from: from, to: to}
	seq := func(s wire.UpdateSeq) { k.origin, k.num = nodeCode(s.Origin), s.Counter }
	switch m := msg.(type) {
	case wire.Query:
		k.tag, k.num, k.user = 1, m.Nonce, m.User
		return k, spHandleQuery, true
	case wire.Response:
		k.tag, k.num, k.user = 2, m.Nonce, m.User
		return k, spHandleResponse, true
	case wire.Update:
		k.tag = 3
		seq(m.Seq)
		return k, spHandleUpdate, true
	case wire.UpdateAck:
		k.tag = 4
		seq(m.Seq)
		return k, spHandleAck, true
	case wire.RevokeNotice:
		k.tag, k.user = 5, m.User
		seq(m.Seq)
		return k, spHandleNotice, true
	case wire.RevokeAck:
		k.tag, k.user = 6, m.User
		seq(m.Seq)
		return k, spHandleRevokeAck, true
	}
	return k, 0, false
}

func transitKind(from, to uint8) spanKind {
	switch {
	case isHost(from):
		return spTransitH2M
	case isHost(to):
		return spTransitM2H
	default:
		return spTransitM2M
	}
}

// Node codes: managers 0..2, hosts 3..4.
const (
	numManagers = 3
	numHosts    = 2
	numNodes    = numManagers + numHosts
)

func isHost(code uint8) bool { return code >= numManagers }

func nodeName(code uint8) string {
	if isHost(code) {
		return "h" + strconv.Itoa(int(code)-numManagers)
	}
	return "m" + strconv.Itoa(int(code))
}

func nodeCode(id wire.NodeID) uint8 {
	n := uint8(id[1] - '0')
	if id[0] == 'h' {
		return n + numManagers
	}
	return n
}

// seam is one node's pair of wrappers: the core.Env the protocol node is
// built on and the handler the transport delivers to.
type seam struct {
	node    uint8
	inner   wanac.Transport
	handler wanac.TransportHandler // the Host or Manager
	timers  atomic.Uint64
	tr      atomic.Pointer[tracer]
	// While a tracer is attached, every entry into the node — a handler, a
	// timer callback, a Check or Submit by the workload — holds mu, so cur,
	// the span the node is executing, is the parent of whatever it sends.
	mu  sync.Mutex
	cur atomic.Int32
	// notice, on hosts, is told about every RevokeNotice the host has
	// applied (traced or not): the revocation workload's flush clock.
	notice func(host uint8, m wire.RevokeNotice, at time.Time)
}

func (s *seam) enter(id int32) {
	s.mu.Lock()
	s.cur.Store(id)
}

func (s *seam) exit() {
	s.cur.Store(0)
	s.mu.Unlock()
}

func (s *seam) Now() time.Time { return s.inner.Now() }

func (s *seam) SetTimer(d time.Duration, fn func()) core.TimerHandle {
	s.timers.Add(1)
	if s.tr.Load() == nil {
		return s.inner.SetTimer(d, fn)
	}
	return s.inner.SetTimer(d, func() {
		s.enter(0)
		defer s.exit()
		fn()
	})
}

func (s *seam) Send(to wire.NodeID, msg wire.Message) {
	t := s.tr.Load()
	parent := s.cur.Load()
	if t == nil || parent == 0 {
		s.inner.Send(to, msg)
		return
	}
	peer := nodeCode(to)
	key, _, ok := messageKey(s.node, peer, msg)
	start := t.now()
	s.inner.Send(to, msg)
	end := t.now()
	if !ok {
		return
	}
	root := t.spans[parent-1].flow
	if t.alloc(span{start: start, end: end, parent: parent, flow: root, kind: spSend, node: s.node, peer: peer}) == 0 {
		return
	}
	t.mu.Lock()
	t.sent[key] = sentRecord{at: end, flow: t.flowOf[root]}
	t.mu.Unlock()
}

func (s *seam) HandleMessage(from wire.NodeID, msg wire.Message) {
	t := s.tr.Load()
	if t == nil {
		s.handler.HandleMessage(from, msg)
		if n, ok := msg.(wire.RevokeNotice); ok && s.notice != nil {
			s.notice(s.node, n, time.Now())
		}
		return
	}
	arrived := t.now()
	peer := nodeCode(from)
	var f *flow
	var id int32
	if key, kind, ok := messageKey(peer, s.node, msg); ok {
		t.mu.Lock()
		rec, found := t.sent[key]
		if found {
			delete(t.sent, key)
			f = rec.flow
			var parent int32
			if !f.closed {
				parent = f.root
			}
			t.alloc(span{start: rec.at, end: arrived, parent: parent, flow: f.root,
				kind: transitKind(peer, s.node), node: s.node, peer: peer})
			if kind == spHandleResponse {
				f.responses++
				if f.responses == 1 {
					f.firstResp = arrived
				}
				if f.responses == f.quorum {
					t.alloc(span{start: f.firstResp, end: arrived, parent: parent, flow: f.root,
						kind: spQuorumWait, node: s.node})
				}
			}
		}
		t.mu.Unlock()
		id = t.beginCall(kind, s.node, peer, f, arrived)
	}
	s.enter(id)
	s.handler.HandleMessage(from, msg)
	end := t.endCall(id, f)
	s.exit()
	if n, isNotice := msg.(wire.RevokeNotice); isNotice && s.notice != nil {
		s.notice(s.node, n, t.epoch.Add(time.Duration(end)))
	}
}

// spanStats is what the per-layer table is computed from.
type spanStats struct {
	selfUS   [spKinds][]float64 // self time per span, by kind
	accRatio []float64          // per flow: share of the root the blocking path accounts for
	nested   int                // child spans checked against their parent
	escaped  int                // children not inside their parent
	flows    int
}

// analyse computes self times (span minus the part its children cover), the
// blocking-path accounting of every closed flow, and the containment check.
func analyse(spans []span) spanStats {
	var st spanStats
	children := make(map[int32][]int32)
	byFlow := make(map[int32][]int32)
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue // never closed (in flight when the window ended)
		}
		id := int32(i + 1)
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], id)
		}
		if !s.kind.root() {
			byFlow[s.flow] = append(byFlow[s.flow], id)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		id := int32(i + 1)
		kids := children[id]
		for _, c := range kids {
			st.nested++
			if k := &spans[c-1]; k.start < s.start || k.end > s.end {
				st.escaped++
			}
		}
		self := float64(s.end-s.start-covered(spans, kids, s.start, s.end)) / 1e3
		st.selfUS[s.kind] = append(st.selfUS[s.kind], self)
		if s.kind == spCheck || s.kind == spRevoke {
			st.flows++
			st.accRatio = append(st.accRatio, accounted(spans, byFlow[id], s))
		}
	}
	return st
}

// covered is the length of [lo,hi] covered by the union of the given spans.
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(a, b int) bool { return spans[ids[a]-1].start < spans[ids[b]-1].start })
	var total int64
	cur := lo
	for _, id := range ids {
		s, e := spans[id-1].start, spans[id-1].end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// accounted walks the blocking path of one flow backwards from the root's
// end — the handler that ended it, the transit that fed that handler, the
// Send that started the transit, the call that made the Send, and so on —
// and returns the share of the root's duration the walk reaches. The seams
// share timestamps (a transit starts at its Send's return and ends at the
// handler's entry), so a complete chain accounts for all of it.
func accounted(spans []span, ids []int32, root *span) float64 {
	at := root.end
	for step := 0; step < 32; step++ {
		var hit *span
		for _, id := range ids {
			s := &spans[id-1]
			if s.end == at && s.kind != spQuorumWait && (hit == nil || s.start > hit.start) {
				hit = s
			}
		}
		if hit == nil {
			break
		}
		at = hit.start
		if hit.kind == spSend && hit.parent != 0 && !spans[hit.parent-1].kind.root() {
			at = spans[hit.parent-1].start // the time the caller spent before sending is its self time
		}
		if at <= root.start {
			at = root.start
			break
		}
	}
	return ratio(float64(root.end-at), float64(root.end-root.start))
}

// writeSpans dumps spans as JSONL: one object per line with the fields the
// README documents.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"flow":`...)
		buf = strconv.AppendInt(buf, int64(s.flow), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, `","node":"`...)
		buf = append(buf, nodeName(s.node)...)
		if s.kind >= spHandleResponse {
			buf = append(buf, `","peer":"`...)
			buf = append(buf, nodeName(s.peer)...)
		}
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
