package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"wanac/internal/wire"
)

// tableModel is the reference the manager's grant tracking is checked
// against: an ACL, the last-writer-wins frontier, and the grant table in its
// original form — one map of host -> deadline per (user, right), walked in
// sorted host order when a revocation is forwarded.
type tableModel struct {
	rights  map[grantKey]bool
	lastOp  map[grantKey]wire.Update
	grants  map[grantKey]map[wire.NodeID]time.Time
	syncing bool
}

func newTableModel() *tableModel {
	return &tableModel{
		rights: make(map[grantKey]bool),
		lastOp: make(map[grantKey]wire.Update),
		grants: make(map[grantKey]map[wire.NodeID]time.Time),
	}
}

// query is the verdict for gk and, when granted, records the grant to from.
func (r *tableModel) query(from wire.NodeID, gk grantKey, deadline time.Time) bool {
	if !gk.right.Valid() || !r.rights[gk] {
		return false
	}
	hosts := r.grants[gk]
	if hosts == nil {
		hosts = make(map[wire.NodeID]time.Time, 1)
		r.grants[gk] = hosts
	}
	hosts[from] = deadline
	return true
}

// apply is applyLocked + forwardRevocation: it returns the hosts a notice
// goes to, in order.
func (r *tableModel) apply(upd wire.Update, now time.Time) []wire.NodeID {
	gk := grantKey{user: upd.User, right: upd.Right}
	if cur, ok := r.lastOp[gk]; ok && !newerOp(upd, cur) {
		return nil
	}
	r.lastOp[gk] = upd
	if upd.Op == wire.OpAdd {
		r.rights[gk] = true
		return nil
	}
	delete(r.rights, gk)
	hosts := r.grants[gk]
	delete(r.grants, gk)
	var notify []wire.NodeID
	for _, host := range modelSortedHosts(hosts) {
		if deadline := hosts[host]; !deadline.IsZero() && !now.Before(deadline) {
			continue
		}
		notify = append(notify, host)
	}
	return notify
}

func modelSortedHosts(set map[wire.NodeID]time.Time) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *tableModel) entries(app wire.AppID) []wire.ACLEntry {
	var out []wire.ACLEntry
	for gk := range r.rights {
		out = append(out, wire.ACLEntry{App: app, User: gk.user, Right: gk.right})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Right < out[j].Right
	})
	return out
}

// tableSnapshot is what SaveState persists, as the model sees it.
type tableSnapshot struct {
	state     bytes.Buffer
	rights    []grantKey
	lastOp    map[grantKey]wire.Update
	delivered map[wire.NodeID]uint64
}

// TestManagerTableAgainstModel drives one manager through seeded
// interleavings of queries (several hosts, both rights), peer updates
// (adds, revokes, last-writer-wins losers), ForceApply, Recover,
// ResetVolatile, SaveState/LoadState and clock advances past grant
// deadlines, and compares every Response and the exact sequence of
// RevokeNotice sends with tableModel.
func TestManagerTableAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		if err := runManagerTable(seed, 500); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runManagerTable(seed int64, steps int) error {
	const (
		app wire.AppID = "app"
		te             = 10 * time.Second
		b              = 0.9
	)
	rng := rand.New(rand.NewSource(seed))
	env := newFakeEnv()
	m := NewManager("m0", env, nil, nil)
	if err := m.AddApp(app, ManagerAppConfig{
		Peers: []wire.NodeID{"m0", "m1", "m2"}, CheckQuorum: 2, Te: te, ClockBound: b,
	}); err != nil {
		return err
	}
	expire := time.Duration(float64(te) * b)
	hold := time.Duration(float64(expire) / b) // how long the manager tracks a grant

	model := newTableModel()
	delivered := map[wire.NodeID]uint64{}    // per-origin counters handed to the manager in order
	forced := map[wire.NodeID]*wire.Update{} // force-applied, still to arrive over the network
	var snap *tableSnapshot
	users := []wire.UserID{"u0", "u1", "u2", "u3", "u4"}
	hosts := []wire.NodeID{"h3", "h0", "h4", "h1", "h2"}
	rights := []wire.Right{wire.RightUse, wire.RightManage}
	origins := []wire.NodeID{"m1", "m2"}

	type sent struct {
		to  wire.NodeID
		msg wire.Message
	}
	// observed returns the Responses and RevokeNotices sent since mark.
	observed := func(mark int) []sent {
		var out []sent
		for _, e := range env.sent[mark:] {
			switch e.Msg.(type) {
			case wire.Response, wire.RevokeNotice:
				out = append(out, sent{e.To, e.Msg})
			}
		}
		return out
	}
	notices := func(upd wire.Update, to []wire.NodeID) []sent {
		var out []sent
		for _, h := range to {
			out = append(out, sent{h, wire.RevokeNotice{App: app, User: upd.User, Right: upd.Right, Seq: upd.Seq}})
		}
		return out
	}
	nextUpdate := func(origin wire.NodeID) wire.Update {
		op := wire.OpAdd
		if rng.Intn(2) == 0 {
			op = wire.OpRevoke
		}
		issued := env.now
		if rng.Intn(4) == 0 { // a delayed operation: may lose last-writer-wins
			issued = issued.Add(-time.Duration(rng.Intn(20000)) * time.Millisecond)
		}
		return wire.Update{
			Seq: wire.UpdateSeq{Origin: origin, Counter: delivered[origin] + 1},
			Op:  op, App: app, User: users[rng.Intn(len(users))],
			Right: rights[rng.Intn(len(rights))], Issued: issued,
		}
	}

	for step := 0; step < steps; step++ {
		mark := len(env.sent)
		var want []sent
		var what string
		switch p := rng.Intn(100); {
		case p < 50:
			from := hosts[rng.Intn(len(hosts))]
			gk := grantKey{user: users[rng.Intn(len(users))], right: rights[rng.Intn(len(rights))]}
			if rng.Intn(25) == 0 {
				gk.right = wire.Right(7)
			}
			what = fmt.Sprintf("query %s %s/%v", from, gk.user, gk.right)
			q := wire.Query{App: app, User: gk.user, Right: gk.right, Nonce: uint64(step), Trace: uint64(step)}
			resp := wire.Response{App: app, User: gk.user, Right: gk.right, Nonce: q.Nonce, Trace: q.Trace}
			if model.syncing {
				resp.Frozen = true
			} else if model.query(from, gk, env.now.Add(hold)) {
				resp.Granted, resp.Expire = true, expire
			}
			m.HandleMessage(from, q)
			want = []sent{{from, resp}}
		case p < 70:
			if model.syncing {
				continue
			}
			origin := origins[rng.Intn(len(origins))]
			var upd wire.Update
			if f := forced[origin]; f != nil {
				upd = *f // the original finally arrives
				delete(forced, origin)
			} else {
				upd = nextUpdate(origin)
			}
			what = fmt.Sprintf("update %v %v %s/%v", upd.Seq, upd.Op, upd.User, upd.Right)
			to := model.apply(upd, env.now)
			delivered[origin] = upd.Seq.Counter
			m.HandleMessage(origin, upd)
			want = notices(upd, to)
			// One ack retires the notice to every host, so no retransmission
			// timer outlives the step.
			m.HandleMessage("h0", wire.RevokeAck{App: app, User: upd.User, Seq: upd.Seq})
		case p < 74:
			origin := origins[rng.Intn(len(origins))]
			if model.syncing || forced[origin] != nil {
				continue
			}
			upd := nextUpdate(origin)
			what = fmt.Sprintf("force %v %v %s/%v", upd.Seq, upd.Op, upd.User, upd.Right)
			forced[origin] = &upd
			to := model.apply(upd, env.now)
			if err := m.ForceApply(upd); err != nil {
				return err
			}
			want = notices(upd, to)
			m.HandleMessage("h0", wire.RevokeAck{App: app, User: upd.User, Seq: upd.Seq})
		case p < 86:
			what = "advance"
			env.advance(time.Duration(rng.Intn(7000)) * time.Millisecond)
		case p < 89:
			if model.syncing {
				what = "sync"
				ops := make([]wire.Update, 0, len(model.lastOp))
				for _, op := range model.lastOp {
					ops = append(ops, op)
				}
				applied := make(map[wire.NodeID]uint64, len(delivered))
				for o, c := range delivered {
					applied[o] = c
				}
				m.HandleMessage("m1", wire.SyncResponse{App: app, Entries: model.entries(app), Applied: applied, Ops: ops})
				model.syncing = false
			} else {
				what = "recover"
				m.Recover()
				model.grants = make(map[grantKey]map[wire.NodeID]time.Time)
				model.syncing = true
			}
		case p < 91:
			what = "reset"
			m.ResetVolatile()
			model = newTableModel()
			delivered = map[wire.NodeID]uint64{}
			forced = map[wire.NodeID]*wire.Update{}
		case p < 94:
			if model.syncing {
				continue
			}
			what = "save"
			snap = &tableSnapshot{lastOp: make(map[grantKey]wire.Update), delivered: make(map[wire.NodeID]uint64)}
			if err := m.SaveState(&snap.state); err != nil {
				return err
			}
			for gk := range model.rights {
				snap.rights = append(snap.rights, gk)
			}
			for gk, op := range model.lastOp {
				snap.lastOp[gk] = op
			}
			for o, c := range delivered {
				snap.delivered[o] = c
			}
		case p < 97:
			if model.syncing || snap == nil {
				continue
			}
			what = "load"
			if err := m.LoadState(bytes.NewReader(snap.state.Bytes())); err != nil {
				return err
			}
			for _, gk := range snap.rights {
				model.rights[gk] = true
			}
			for gk, op := range snap.lastOp {
				if cur, ok := model.lastOp[gk]; !ok || newerOp(op, cur) {
					model.lastOp[gk] = op
				}
			}
			for o, c := range snap.delivered {
				if c > delivered[o] {
					delivered[o] = c
				}
				if f := forced[o]; f != nil && f.Seq.Counter <= delivered[o] {
					delete(forced, o)
				}
			}
		default:
			gk := grantKey{user: users[rng.Intn(len(users))], right: rights[rng.Intn(len(rights))]}
			what = fmt.Sprintf("seed %s/%v", gk.user, gk.right)
			m.Seed(app, gk.user, gk.right)
			model.rights[gk] = true
		}
		if got := observed(mark); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("step %d (%s) at +%v:\n got  %v\n want %v", step, what, env.now.Sub(newFakeEnv().now), got, want)
		}
	}
	return nil
}
