package acl

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"wanac/internal/wire"
)

// modelCache is the cache as one map from (app, user, right) to the limit
// and the list of managers that confirmed it: the layout Cache had before it
// kept per-app user tables and granter bitmasks. It ignores invalid rights.
type modelCache struct {
	m   map[cacheKey]modelEntry
	max int
}

type modelEntry struct {
	limit    time.Time
	granters []wire.NodeID
}

func (mc *modelCache) put(k cacheKey, limit time.Time, granters []wire.NodeID) {
	if !k.right.Valid() {
		return
	}
	e, ok := mc.m[k]
	if !ok || !e.limit.Equal(limit) {
		e = modelEntry{limit: limit}
	}
	for _, g := range granters {
		if !slices.Contains(e.granters, g) {
			e.granters = append(e.granters, g)
		}
	}
	mc.m[k] = e
	mc.evict()
}

// evict drops entries in the documented order: earliest limit first, a zero
// limit after every other, then by app, user and right.
func (mc *modelCache) evict() {
	for mc.max > 0 && len(mc.m) > mc.max {
		keys := make([]cacheKey, 0, len(mc.m))
		for k := range mc.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := mc.m[keys[i]].limit, mc.m[keys[j]].limit
			if a.IsZero() != b.IsZero() {
				return b.IsZero()
			}
			if !a.Equal(b) {
				return a.Before(b)
			}
			ki, kj := keys[i], keys[j]
			if ki.app != kj.app {
				return ki.app < kj.app
			}
			if ki.user != kj.user {
				return ki.user < kj.user
			}
			return ki.right < kj.right
		})
		delete(mc.m, keys[0])
	}
}

func (mc *modelCache) snapshot() []Entry {
	out := []Entry{}
	for k, e := range mc.m {
		out = append(out, Entry{App: k.app, User: k.user, Right: k.right, Limit: e.limit, Granters: len(e.granters)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.App < b.App || a.App == b.App && (a.User < b.User || a.User == b.User && a.Right < b.Right)
	})
	return out
}

// TestCacheAgainstModel drives Cache and modelCache through the same seeded
// random operations — Puts with repeated and new limits and overlapping
// granter sets, lookups as time advances (by LookupStatus, and by Lookup in
// a table handle taken before the first Put), removals, purges, bound
// changes, clears —
// and requires the same answer from every operation and the same snapshot,
// eviction victims and granter counts included, after every step. Each app
// draws on six managers, so the 65-granter rule never fires here. The
// clock is, by seed, the simulator's (UTC wall time), local wall time, or
// time.Now() with its monotonic reading; a returned limit must be Equal to
// the one Put, in the same Location, including limits before the first
// non-zero one the cache saw.
func TestCacheAgainstModel(t *testing.T) {
	apps := []wire.AppID{"a", "b"}
	users := []wire.UserID{"u0", "u1", "u2", "u3", "u4"}
	rights := []wire.Right{wire.RightUse, wire.RightManage}
	managers := []wire.NodeID{"m0", "m1", "m2", "m3", "m4", "m5"}
	beforeFirst := 0 // Puts of a limit earlier than the first non-zero one
	for seed := int64(1); seed <= 100; seed++ {
		base := []time.Time{time.Unix(1000, 0).UTC(), time.Unix(1000, 0), time.Now()}[seed%3]
		rng := rand.New(rand.NewSource(seed))
		c, mc := NewCache(), &modelCache{m: make(map[cacheKey]modelEntry)}
		tables := map[wire.AppID]*Table{}
		for _, app := range apps {
			tables[app] = c.Table(app)
		}
		now := base
		var first time.Time
		pick := func() cacheKey {
			return cacheKey{apps[rng.Intn(len(apps))], users[rng.Intn(len(users))], rights[rng.Intn(len(rights))]}
		}
		for step := 0; step < 300; step++ {
			var op string
			switch n := rng.Intn(100); {
			case n < 45:
				k := pick()
				// Four limits a few seconds apart, or none: the same limit
				// recurs (granters add up) and new ones supersede.
				var limit time.Time
				if l := rng.Intn(5); l > 0 {
					limit = base.Add(time.Duration(l*rng.Intn(4)) * 3 * time.Second)
				}
				granters := make([]wire.NodeID, rng.Intn(4))
				for i := range granters {
					granters[i] = managers[rng.Intn(len(managers))]
				}
				op = fmt.Sprintf("Put(%v, %v, %v)", k, limit.Sub(base), granters)
				switch {
				case limit.IsZero():
				case first.IsZero():
					first = limit
				case limit.Before(first):
					beforeFirst++
				}
				c.Put(k.app, k.user, k.right, limit, granters...)
				mc.put(k, limit, granters)
			case n < 70:
				k := pick()
				now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
				want, wst := Entry{}, Miss
				if e, ok := mc.m[k]; ok && expired(e.limit, now) {
					delete(mc.m, k)
					wst = Expired
				} else if ok {
					want, wst = Entry{App: k.app, User: k.user, Right: k.right, Limit: e.limit, Granters: len(e.granters)}, Hit
				}
				if rng.Intn(2) == 0 {
					op = fmt.Sprintf("LookupStatus(%v) at %v", k, now.Sub(base))
					got, st := c.LookupStatus(k.app, k.user, k.right, now)
					if !sameEntry(got, want) || st != wst {
						t.Fatalf("seed %d step %d: %s = %+v, %d; model %+v, %d", seed, step, op, got, st, want, wst)
					}
					break
				}
				op = fmt.Sprintf("Table(%s).Lookup(%v) at %v", k.app, k, now.Sub(base))
				wantLeft := time.Duration(0)
				if wst == Hit {
					wantLeft = Forever
					if !want.Limit.IsZero() {
						wantLeft = want.Limit.Sub(now)
					}
				}
				left, granters, st := tables[k.app].Lookup(k.user, k.right, now)
				if left != wantLeft || granters != want.Granters || st != wst {
					t.Fatalf("seed %d step %d: %s = %v, %d, %d; model %v, %d, %d", seed, step, op, left, granters, st,
						wantLeft, want.Granters, wst)
				}
			case n < 80:
				k := pick()
				op = fmt.Sprintf("Remove(%v)", k)
				_, want := mc.m[k]
				delete(mc.m, k)
				if got := c.Remove(k.app, k.user, k.right); got != want {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, got, want)
				}
			case n < 92:
				now = now.Add(time.Duration(rng.Intn(4)) * time.Second)
				op = fmt.Sprintf("PurgeExpired(%v)", now.Sub(base))
				want := 0
				for k, e := range mc.m {
					if expired(e.limit, now) {
						delete(mc.m, k)
						want++
					}
				}
				if got := c.PurgeExpired(now); got != want {
					t.Fatalf("seed %d step %d: %s = %d, model %d", seed, step, op, got, want)
				}
			case n < 98:
				mc.max = []int{0, 1, 3, 6, 12}[rng.Intn(5)]
				op = fmt.Sprintf("SetMaxEntries(%d)", mc.max)
				c.SetMaxEntries(mc.max)
				mc.evict()
			default:
				op = "Clear()"
				c.Clear()
				clear(mc.m)
			}
			want := mc.snapshot()
			if got := c.snapshot(); !slices.EqualFunc(got, want, sameEntry) {
				t.Fatalf("seed %d step %d: after %s\n snapshot %+v\n    model %+v", seed, step, op, got, want)
			}
			if c.Len() != len(want) {
				t.Fatalf("seed %d step %d: after %s Len = %d, model %d", seed, step, op, c.Len(), len(want))
			}
			for _, e := range want {
				if g := c.Granters(e.App, e.User, e.Right); g != e.Granters {
					t.Fatalf("seed %d step %d: after %s Granters(%s, %s, %v) = %d, model %d", seed, step, op, e.App, e.User, e.Right, g, e.Granters)
				}
			}
		}
	}
	if beforeFirst == 0 {
		t.Error("no Put had a limit before the first non-zero one")
	}
}

// sameEntry compares entries field by field and limits with Equal and by
// Location: a limit the cache hands back need not share the encoding of the
// one Put, only its instant and its Location.
func sameEntry(a, b Entry) bool {
	return a.App == b.App && a.User == b.User && a.Right == b.Right && a.Granters == b.Granters &&
		a.Limit.Equal(b.Limit) && a.Limit.Location() == b.Limit.Location()
}

// TestCacheSixtyFifthGranterEmptiesApp: an application's entries name at
// most 64 managers between them. The Put that would name a 65th empties that
// application's entries (and no other's) and is then stored as usual.
func TestCacheSixtyFifthGranterEmptiesApp(t *testing.T) {
	c := NewCache()
	limit := time.Unix(2000, 0)
	for i := 0; i < maxGranters; i++ {
		c.Put("a", wire.UserID(fmt.Sprintf("u%d", i)), wire.RightUse, limit, wire.NodeID(fmt.Sprintf("m%d", i)), "m0")
	}
	c.Put("b", "u0", wire.RightManage, limit, "x0", "x1")
	if c.Len() != maxGranters+1 {
		t.Fatalf("Len = %d before the 65th granter, want %d", c.Len(), maxGranters+1)
	}
	if g := c.Granters("a", "u1", wire.RightUse); g != 2 {
		t.Fatalf("Granters(a, u1) = %d, want 2", g)
	}
	// A known granter and a 65th distinct one.
	c.Put("a", "w", wire.RightManage, limit, "m3", "m64")
	want := []Entry{
		{App: "a", User: "w", Right: wire.RightManage, Limit: limit, Granters: 2},
		{App: "b", User: "u0", Right: wire.RightManage, Limit: limit, Granters: 2},
	}
	if got := c.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the 65th granter: %+v, want %+v", got, want)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// The emptied application fills again from a fresh granter table.
	for i := 0; i < maxGranters-2; i++ {
		c.Put("a", wire.UserID(fmt.Sprintf("v%d", i)), wire.RightUse, limit, wire.NodeID(fmt.Sprintf("n%d", i)))
	}
	if c.Len() != maxGranters {
		t.Errorf("Len = %d after refilling with 62 new granters, want %d (no second flush)", c.Len(), maxGranters)
	}
}

// TestCachePutInvalidRightIsNoOp: a Put of an invalid right stores nothing,
// so a lookup of that right misses, Len does not count it and, under a
// bound, it cannot evict a valid grant.
func TestCachePutInvalidRightIsNoOp(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(1)
	limit := time.Unix(2000, 0)
	c.Put("app", "alice", wire.RightUse, limit.Add(time.Hour), "m0")
	for _, r := range []wire.Right{0, 3, 7} {
		c.Put("app", "alice", r, limit, "m0")
		if _, st := c.LookupStatus("app", "alice", r, time.Unix(1000, 0)); st != Miss {
			t.Errorf("LookupStatus(right %d) = %d, want Miss", r, st)
		}
		if c.Granters("app", "alice", r) != 0 || c.Remove("app", "alice", r) {
			t.Errorf("right %d: an entry is reported", r)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if _, ok := lookup(c, "app", "alice", wire.RightUse, time.Unix(1000, 0)); !ok {
		t.Error("an invalid right's Put evicted the valid grant")
	}
}
