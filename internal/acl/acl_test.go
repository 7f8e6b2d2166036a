package acl

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"wanac/internal/wire"
)

func TestRightSet(t *testing.T) {
	var s RightSet
	if !s.Empty() {
		t.Error("zero set not empty")
	}
	s = s.With(wire.RightUse)
	if !s.Has(wire.RightUse) || s.Has(wire.RightManage) {
		t.Error("With(use) wrong")
	}
	s = s.With(wire.RightManage)
	if got := s.Rights(); len(got) != 2 || got[0] != wire.RightUse || got[1] != wire.RightManage {
		t.Errorf("Rights() = %v", got)
	}
	s = s.Without(wire.RightUse)
	if s.Has(wire.RightUse) || !s.Has(wire.RightManage) {
		t.Error("Without(use) wrong")
	}
	// Invalid rights are ignored everywhere.
	if s.With(wire.Right(0)) != s || s.Without(wire.Right(9)) != s || s.Has(wire.Right(0)) {
		t.Error("invalid right not ignored")
	}
}

func TestRightSetQuick(t *testing.T) {
	f := func(ops []bool) bool {
		var s RightSet
		model := map[wire.Right]bool{}
		for i, add := range ops {
			r := wire.RightUse
			if i%2 == 1 {
				r = wire.RightManage
			}
			if add {
				s = s.With(r)
				model[r] = true
			} else {
				s = s.Without(r)
				delete(model, r)
			}
		}
		return s.Has(wire.RightUse) == model[wire.RightUse] &&
			s.Has(wire.RightManage) == model[wire.RightManage] &&
			s.Empty() == (len(model) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreGrantRevoke(t *testing.T) {
	s := NewStore()
	if !s.Grant("app", "alice", wire.RightUse) {
		t.Error("first Grant reported no change")
	}
	if s.Grant("app", "alice", wire.RightUse) {
		t.Error("duplicate Grant reported change")
	}
	if !s.Has("app", "alice", wire.RightUse) {
		t.Error("Has false after Grant")
	}
	if s.Has("app", "alice", wire.RightManage) {
		t.Error("manage right appeared from nowhere")
	}
	if s.Has("other", "alice", wire.RightUse) {
		t.Error("right leaked across applications")
	}

	if !s.Revoke("app", "alice", wire.RightUse) {
		t.Error("Revoke reported no change")
	}
	if s.Has("app", "alice", wire.RightUse) {
		t.Error("Has true after Revoke")
	}
	// §3.1: removing a non-existent right is a no-op.
	if s.Revoke("app", "alice", wire.RightUse) {
		t.Error("revoking absent right reported change")
	}
	if s.Revoke("ghost", "nobody", wire.RightManage) {
		t.Error("revoking on absent app reported change")
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d after full revoke", s.Len())
	}
}

func TestStoreInvalidRight(t *testing.T) {
	s := NewStore()
	if s.Grant("a", "u", wire.Right(0)) || s.Revoke("a", "u", wire.Right(7)) {
		t.Error("invalid right mutated store")
	}
}

func TestStoreUsers(t *testing.T) {
	s := NewStore()
	s.Grant("app", "carol", wire.RightUse)
	s.Grant("app", "alice", wire.RightUse)
	s.Grant("app", "bob", wire.RightManage)
	got := s.Users("app", wire.RightUse)
	if len(got) != 2 || got[0] != "alice" || got[1] != "carol" {
		t.Errorf("Users(use) = %v", got)
	}
	if got := s.Users("app", wire.RightManage); len(got) != 1 || got[0] != "bob" {
		t.Errorf("Users(manage) = %v", got)
	}
}

func TestStoreEntriesAndReplace(t *testing.T) {
	s := NewStore()
	s.Grant("a", "u1", wire.RightUse)
	s.Grant("a", "u1", wire.RightManage)
	s.Grant("b", "u2", wire.RightUse)

	all := s.Entries("")
	if len(all) != 3 {
		t.Fatalf("Entries = %v", all)
	}
	onlyA := s.Entries("a")
	if len(onlyA) != 2 || onlyA[0].App != "a" {
		t.Fatalf("Entries(a) = %v", onlyA)
	}

	s2 := NewStore()
	s2.Grant("stale", "x", wire.RightUse)
	s2.Replace(all)
	if s2.Has("stale", "x", wire.RightUse) {
		t.Error("Replace kept stale entry")
	}
	if !s2.Has("a", "u1", wire.RightManage) || !s2.Has("b", "u2", wire.RightUse) {
		t.Error("Replace lost entries")
	}
	// Replace skips invalid rights.
	s2.Replace([]wire.ACLEntry{{App: "a", User: "u", Right: wire.Right(9)}})
	if s2.Len() != 0 {
		t.Error("Replace admitted invalid right")
	}
}

func TestStoreRights(t *testing.T) {
	s := NewStore()
	s.Grant("a", "u", wire.RightUse)
	rs := s.Rights("a", "u")
	if !rs.Has(wire.RightUse) || rs.Has(wire.RightManage) {
		t.Errorf("Rights = %v", rs.Rights())
	}
}

// TestStoreModelQuick compares the store against a map-based model under a
// random operation sequence.
func TestStoreModelQuick(t *testing.T) {
	type op struct {
		Grant bool
		App   uint8
		User  uint8
		Mng   bool
	}
	f := func(ops []op) bool {
		s := NewStore()
		model := map[[3]uint8]bool{}
		for _, o := range ops {
			app := wire.AppID([]string{"a", "b"}[o.App%2])
			user := wire.UserID([]string{"u", "v", "w"}[o.User%3])
			r := wire.RightUse
			if o.Mng {
				r = wire.RightManage
			}
			k := [3]uint8{o.App % 2, o.User % 3, uint8(r)}
			if o.Grant {
				s.Grant(app, user, r)
				model[k] = true
			} else {
				s.Revoke(app, user, r)
				delete(model, k)
			}
		}
		for ai, app := range []wire.AppID{"a", "b"} {
			for ui, user := range []wire.UserID{"u", "v", "w"} {
				for _, r := range []wire.Right{wire.RightUse, wire.RightManage} {
					if s.Has(app, user, r) != model[[3]uint8{uint8(ai), uint8(ui), uint8(r)}] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func now() time.Time { return time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC) }

func TestCachePutLookup(t *testing.T) {
	c := NewCache()
	limit := now().Add(time.Minute)
	c.Put("app", "alice", wire.RightUse, limit, "m1")

	e, ok := c.Lookup("app", "alice", wire.RightUse, now())
	if !ok {
		t.Fatal("Lookup missed fresh entry")
	}
	if !e.Limit.Equal(limit) {
		t.Errorf("Limit = %v, want %v", e.Limit, limit)
	}
	if _, ok := c.Lookup("app", "bob", wire.RightUse, now()); ok {
		t.Error("Lookup hit for unknown user")
	}
	if _, ok := c.Lookup("app", "alice", wire.RightManage, now()); ok {
		t.Error("Lookup hit for right not cached")
	}
}

func TestCacheExpiry(t *testing.T) {
	c := NewCache()
	limit := now().Add(time.Minute)
	c.Put("app", "alice", wire.RightUse, limit, "m1")

	if _, ok := c.Lookup("app", "alice", wire.RightUse, limit.Add(-time.Nanosecond)); !ok {
		t.Error("entry expired before its limit")
	}
	// Exactly at the limit the entry is expired (Figure 3: allow only while
	// Time() < limit) and gets removed as a side effect.
	if _, ok := c.Lookup("app", "alice", wire.RightUse, limit); ok {
		t.Error("entry still valid at limit")
	}
	if c.Len() != 0 {
		t.Error("expired entry not removed on lookup")
	}
}

func TestCacheZeroLimitNeverExpires(t *testing.T) {
	c := NewCache()
	c.Put("app", "alice", wire.RightUse, time.Time{}, "m1")
	if _, ok := c.Lookup("app", "alice", wire.RightUse, now().Add(100*365*24*time.Hour)); !ok {
		t.Error("zero-limit entry expired")
	}
}

func TestCacheRemove(t *testing.T) {
	c := NewCache()
	c.Put("app", "alice", wire.RightUse, time.Time{}, "m1")
	if !c.Remove("app", "alice", wire.RightUse) {
		t.Error("Remove reported absent for present entry")
	}
	if c.Remove("app", "alice", wire.RightUse) {
		t.Error("second Remove reported present")
	}
}

func TestCacheRemoveUser(t *testing.T) {
	c := NewCache()
	c.Put("app", "alice", wire.RightUse, time.Time{}, "m1")
	c.Put("app", "alice", wire.RightManage, time.Time{}, "m1")
	c.Put("app", "bob", wire.RightUse, time.Time{}, "m1")
	c.Put("other", "alice", wire.RightUse, time.Time{}, "m1")

	if n := c.RemoveUser("app", "alice"); n != 2 {
		t.Errorf("RemoveUser = %d, want 2", n)
	}
	if _, ok := c.Lookup("app", "bob", wire.RightUse, now()); !ok {
		t.Error("unrelated user flushed")
	}
	if _, ok := c.Lookup("other", "alice", wire.RightUse, now()); !ok {
		t.Error("same user on other app flushed")
	}
}

func TestCachePurgeExpired(t *testing.T) {
	c := NewCache()
	c.Put("app", "a", wire.RightUse, now().Add(time.Second), "m1")
	c.Put("app", "b", wire.RightUse, now().Add(time.Hour), "m1")
	c.Put("app", "c", wire.RightUse, time.Time{}, "m1")
	if n := c.PurgeExpired(now().Add(time.Minute)); n != 1 {
		t.Errorf("PurgeExpired = %d, want 1", n)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheGranters(t *testing.T) {
	c := NewCache()
	limit := now().Add(time.Minute)
	c.Put("app", "alice", wire.RightUse, limit, "m1")
	c.Put("app", "alice", wire.RightUse, limit, "m2")
	c.Put("app", "alice", wire.RightUse, limit, "m1") // duplicate granter
	if got := c.Granters("app", "alice", wire.RightUse); got != 2 {
		t.Errorf("Granters = %d, want 2", got)
	}
	c.Remove("app", "alice", wire.RightUse)
	if got := c.Granters("app", "alice", wire.RightUse); got != 0 {
		t.Errorf("Granters after remove = %d", got)
	}
}

// TestCachePutNewLimitStartsNewGranterSet: the managers vouching for an
// entry are those that confirmed its current limit. A refresh confirmed by
// a different pair must not be credited with the superseded pair too.
func TestCachePutNewLimitStartsNewGranterSet(t *testing.T) {
	c := NewCache()
	first, second := now().Add(time.Minute), now().Add(2*time.Minute)
	c.Put("app", "alice", wire.RightUse, first, "m0", "m1")
	c.Put("app", "alice", wire.RightUse, second, "m2", "m0", "m2")
	e, st := c.LookupStatus("app", "alice", wire.RightUse, now())
	if st != Hit || !e.Limit.Equal(second) || e.Granters != 2 {
		t.Errorf("after refresh: %+v (status %d), want limit %v vouched for by 2", e, st, second)
	}
	// The same limit confirmed again by a third manager adds to the set.
	c.Put("app", "alice", wire.RightUse, second, "m1")
	if got := c.Granters("app", "alice", wire.RightUse); got != 3 {
		t.Errorf("Granters = %d, want 3", got)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].Granters != 3 {
		t.Errorf("Snapshot = %+v", snap)
	}
}

func TestCacheClearAndSnapshot(t *testing.T) {
	c := NewCache()
	c.Put("b", "u", wire.RightUse, time.Time{}, "m")
	c.Put("a", "u", wire.RightUse, time.Time{}, "m")
	snap := c.Snapshot()
	if len(snap) != 2 || snap[0].App != "a" || snap[1].App != "b" {
		t.Errorf("Snapshot = %v", snap)
	}
	c.Clear()
	if c.Len() != 0 || len(c.Snapshot()) != 0 {
		t.Error("Clear left entries")
	}
}

func TestEntryExpired(t *testing.T) {
	e := Entry{Limit: now()}
	if e.Expired(now().Add(-time.Nanosecond)) {
		t.Error("expired before limit")
	}
	if !e.Expired(now()) {
		t.Error("not expired at limit")
	}
	if (Entry{}).Expired(now().Add(1000 * time.Hour)) {
		t.Error("zero-limit entry expired")
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := NewCache()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Put("app", "u", wire.RightUse, now().Add(time.Minute), "m1")
			c.Remove("app", "u", wire.RightUse)
		}
	}()
	for i := 0; i < 1000; i++ {
		c.Lookup("app", "u", wire.RightUse, now())
		c.PurgeExpired(now())
	}
	<-done
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			s.Grant("app", "u", wire.RightUse)
			s.Revoke("app", "u", wire.RightUse)
		}
	}()
	for i := 0; i < 1000; i++ {
		s.Has("app", "u", wire.RightUse)
		s.Entries("")
	}
	<-done
}

func TestCacheMaxEntriesEviction(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(2)
	c.Put("app", "a", wire.RightUse, now().Add(10*time.Second), "m")
	c.Put("app", "b", wire.RightUse, now().Add(30*time.Second), "m")
	c.Put("app", "c", wire.RightUse, now().Add(20*time.Second), "m")
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// "a" had the earliest limit: evicted.
	if _, ok := c.Lookup("app", "a", wire.RightUse, now()); ok {
		t.Error("earliest-expiring entry survived eviction")
	}
	if _, ok := c.Lookup("app", "b", wire.RightUse, now()); !ok {
		t.Error("latest entry evicted")
	}
	if _, ok := c.Lookup("app", "c", wire.RightUse, now()); !ok {
		t.Error("middle entry evicted")
	}
}

func TestCacheEvictionPrefersExpiringOverPermanent(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(1)
	c.Put("app", "perm", wire.RightUse, time.Time{}, "m") // never expires
	c.Put("app", "temp", wire.RightUse, now().Add(time.Hour), "m")
	if _, ok := c.Lookup("app", "perm", wire.RightUse, now()); !ok {
		t.Error("permanent entry evicted before expiring one")
	}
	if _, ok := c.Lookup("app", "temp", wire.RightUse, now()); ok {
		t.Error("expiring entry survived over permanent")
	}
}

func TestCacheShrinkOnSetMaxEntries(t *testing.T) {
	c := NewCache()
	for i := 0; i < 10; i++ {
		c.Put("app", wire.UserID(rune('a'+i)), wire.RightUse, now().Add(time.Duration(i)*time.Minute), "m")
	}
	c.SetMaxEntries(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d after shrink, want 3", c.Len())
	}
	// Survivors are the three latest-expiring entries.
	for _, u := range []wire.UserID{"h", "i", "j"} {
		if _, ok := c.Lookup("app", u, wire.RightUse, now()); !ok {
			t.Errorf("entry %q should have survived", u)
		}
	}
}

func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache()
	for i := 0; i < 1000; i++ {
		c.Put("app", wire.UserID(fmt.Sprintf("u%d", i)), wire.RightUse, time.Time{}, "m")
	}
	if c.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", c.Len())
	}
}

func BenchmarkStoreHas(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Grant("app", wire.UserID(fmt.Sprintf("u%d", i)), wire.RightUse)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Has("app", "u500", wire.RightUse) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkStoreGrantRevoke(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Grant("app", "u", wire.RightUse)
		s.Revoke("app", "u", wire.RightUse)
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache()
	limit := now().Add(time.Hour)
	for i := 0; i < 1000; i++ {
		c.Put("app", wire.UserID(fmt.Sprintf("u%d", i)), wire.RightUse, limit, "m")
	}
	at := now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup("app", "u500", wire.RightUse, at); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkCachePut(b *testing.B) {
	c := NewCache()
	limit := now().Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put("app", "u", wire.RightUse, limit, "m")
	}
}

// TestStoreVouchForgetsExpiredHosts: host ids come off unauthenticated
// frames, so a user's vouch list must not grow with every id ever seen. A
// new host takes over a record whose deadline has passed: 1 000 distinct
// hosts spread over five hold periods leave no more records than hosts that
// can still hold the right, and Withdraw returns every unexpired one.
func TestStoreVouchForgetsExpiredHosts(t *testing.T) {
	const (
		hold = 10 * time.Second
		step = 50 * time.Millisecond
		live = int(hold / step) // hosts whose deadline is still ahead at any instant
	)
	s := NewStore()
	s.Grant("app", "u", wire.RightUse)
	s.Grant("app", "u", wire.RightManage)
	now := time.Unix(1000, 0)
	s.Vouch("app", "u", wire.RightManage, "admin-host", time.Time{}, now) // never expires, never reused
	for i := 0; i < 1000; i++ {
		now = now.Add(step)
		if !s.Vouch("app", "u", wire.RightUse, wire.NodeID(fmt.Sprintf("h%04d", i)), now.Add(hold), now) {
			t.Fatal("Vouch denied a held right")
		}
		if s.Vouch("app", "u", wire.Right(7), "hx", now.Add(hold), now) || s.Vouch("app", "nobody", wire.RightUse, "hx", now.Add(hold), now) {
			t.Fatal("Vouch granted a right not held")
		}
	}
	if n := len(s.slab[s.apps["app"]["u"].slot-1]); n > live+1 {
		t.Errorf("record holds %d vouches after 1000 hosts, want <= %d (the live set) + 1", n, live)
	}
	vouched, _ := s.Withdraw("app", "u", wire.RightUse)
	var unexpired []wire.NodeID
	for _, v := range vouched {
		if v.Right != wire.RightUse {
			t.Errorf("Withdraw(use) returned a %v vouch", v.Right)
		}
		if !expired(v.Deadline, now) {
			unexpired = append(unexpired, v.Host)
		}
	}
	if len(unexpired) != live {
		t.Fatalf("%d unexpired vouches, want %d", len(unexpired), live)
	}
	for i, h := range unexpired {
		if want := wire.NodeID(fmt.Sprintf("h%04d", 1000-live+i)); h != want {
			t.Fatalf("unexpired[%d] = %s, want %s (sorted by host id)", i, h, want)
		}
	}
	if again, changed := s.Withdraw("app", "u", wire.RightUse); s.Has("app", "u", wire.RightUse) || changed || len(again) != 0 {
		t.Error("right or vouches survive Withdraw")
	}
	if got, _ := s.Withdraw("app", "u", wire.RightManage); len(got) != 1 || got[0].Host != "admin-host" {
		t.Errorf("Withdraw(manage) = %v, want the admin-host vouch", got)
	}
	// The user is gone; its slot serves the next user vouched for.
	s.Grant("app", "w", wire.RightUse)
	s.Vouch("app", "w", wire.RightUse, "h0", time.Time{}, now)
	if len(s.slab) != 1 {
		t.Errorf("slab has %d slots, want the freed one reused", len(s.slab))
	}
}
