// Package acl implements the access-control-list data structures of the
// system: the authoritative Store kept by managers (the full access control
// list per application, §2.2) and the expiring Cache kept by application
// hosts (ACL_cache(A), §3.1-3.2).
package acl

import (
	"slices"
	"sort"
	"sync"
	"time"

	"wanac/internal/wire"
)

// RightSet is a bitmask of rights held by a user on an application.
type RightSet uint8

// Bit positions derive from the wire.Right values.
func bit(r wire.Right) RightSet { return 1 << (uint8(r) - 1) }

// Has reports whether the set contains r.
func (s RightSet) Has(r wire.Right) bool { return r.Valid() && s&bit(r) != 0 }

// With returns the set extended with r.
func (s RightSet) With(r wire.Right) RightSet {
	if !r.Valid() {
		return s
	}
	return s | bit(r)
}

// Without returns the set with r removed.
func (s RightSet) Without(r wire.Right) RightSet {
	if !r.Valid() {
		return s
	}
	return s &^ bit(r)
}

// Empty reports whether no rights remain.
func (s RightSet) Empty() bool { return s == 0 }

// Rights lists the contained rights in declaration order.
func (s RightSet) Rights() []wire.Right {
	out := make([]wire.Right, 0, 2)
	for _, r := range []wire.Right{wire.RightUse, wire.RightManage} {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Store is the authoritative access control list maintained by a manager:
// for each application, the users allowed to access it and the users allowed
// to manage it (§2.2), and beside each user's rights the hosts the manager
// has vouched them to (§3.1), so answering a query is one probe of the user
// table. Store is safe for concurrent use; its one user, a Manager, already
// serialises every call under its own lock, so the mutex is a plain one — a
// query writes the record it reads, and no two readers ever meet.
type Store struct {
	mu   sync.Mutex
	apps map[wire.AppID]map[wire.UserID]userRec
	// slab holds the users' vouch lists; free lists the slots of deleted
	// users. Keeping the lists out of the map value keeps seeding a large
	// user table as cheap as a map of bare RightSets.
	slab [][]Vouch
	free []int32
}

// userRec is the user table's value: the rights held, and the 1-based slab
// slot of the user's vouch list (0: nothing vouched yet).
type userRec struct {
	rights RightSet
	slot   int32
}

// Vouch records that a manager told Host the user holds Right, in an answer
// the host may cache until Deadline on the manager's clock (zero: forever).
// A revocation of the right must be forwarded to every such host (§3.1).
type Vouch struct {
	Host     wire.NodeID
	Deadline time.Time
	Right    wire.Right
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{apps: make(map[wire.AppID]map[wire.UserID]userRec)}
}

// Grant adds right r on app for user. It reports whether the store changed.
func (s *Store) Grant(app wire.AppID, user wire.UserID, r wire.Right) bool {
	if !r.Valid() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grantLocked(app, user, r)
}

func (s *Store) grantLocked(app wire.AppID, user wire.UserID, r wire.Right) bool {
	users := s.apps[app]
	if users == nil {
		users = make(map[wire.UserID]userRec)
		s.apps[app] = users
	}
	rec := users[user]
	if rec.rights.Has(r) {
		return false
	}
	rec.rights = rec.rights.With(r)
	users[user] = rec
	return true
}

// Revoke removes right r on app for user, and with it the record of the
// hosts r was vouched to. Removing a non-existent right is a no-op (§3.1:
// "an attempt to remove a non-existent access right ... is equivalent to a
// no-op"). It reports whether the store changed.
func (s *Store) Revoke(app wire.AppID, user wire.UserID, r wire.Right) bool {
	_, changed := s.Withdraw(app, user, r)
	return changed
}

// Withdraw is Revoke returning the vouches that went with the right, sorted
// by host id: the hosts the revocation is to be forwarded to.
func (s *Store) Withdraw(app wire.AppID, user wire.UserID, r wire.Right) (vouched []Vouch, changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := s.apps[app]
	rec, ok := users[user]
	if !ok || !rec.rights.Has(r) {
		return nil, false
	}
	rec.rights = rec.rights.Without(r)
	if rec.slot != 0 {
		list := s.slab[rec.slot-1]
		kept := list[:0]
		for _, v := range list {
			if v.Right == r {
				vouched = append(vouched, v)
			} else {
				kept = append(kept, v)
			}
		}
		clear(list[len(kept):])
		s.slab[rec.slot-1] = kept
		sort.Slice(vouched, func(i, j int) bool { return vouched[i].Host < vouched[j].Host })
	}
	if !rec.rights.Empty() {
		users[user] = rec
		return vouched, true
	}
	if rec.slot != 0 {
		s.free = append(s.free, rec.slot)
	}
	delete(users, user)
	if len(users) == 0 {
		delete(s.apps, app)
	}
	return vouched, true
}

// Vouch answers a host's query in one probe: it reports whether user holds
// r on app and, if so, records that host may cache the answer until
// deadline. A host already listed for r has its deadline replaced; a new
// host takes over the first record of r whose deadline has passed at now,
// so a user's list is bounded by the hosts that can still hold the right.
func (s *Store) Vouch(app wire.AppID, user wire.UserID, r wire.Right, host wire.NodeID, deadline, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := s.apps[app]
	rec := users[user]
	if !rec.rights.Has(r) {
		return false
	}
	if rec.slot == 0 {
		if n := len(s.free); n > 0 {
			rec.slot, s.free = s.free[n-1], s.free[:n-1]
		} else {
			s.slab = append(s.slab, nil)
			rec.slot = int32(len(s.slab))
		}
		users[user] = rec
	}
	list := s.slab[rec.slot-1]
	stale := -1
	for i := range list {
		switch v := &list[i]; {
		case v.Right != r:
		case v.Host == host:
			v.Deadline = deadline
			return true
		case stale < 0 && expired(v.Deadline, now):
			stale = i
		}
	}
	if v := (Vouch{Host: host, Deadline: deadline, Right: r}); stale >= 0 {
		list[stale] = v
	} else {
		s.slab[rec.slot-1] = append(list, v)
	}
	return true
}

// Has reports whether user holds right r on app.
func (s *Store) Has(app wire.AppID, user wire.UserID, r wire.Right) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[app][user].rights.Has(r)
}

// Rights returns the rights user holds on app.
func (s *Store) Rights(app wire.AppID, user wire.UserID) RightSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[app][user].rights
}

// Users returns the users holding right r on app, sorted for determinism.
func (s *Store) Users(app wire.AppID, r wire.Right) []wire.UserID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.UserID
	for u, rec := range s.apps[app] {
		if rec.rights.Has(r) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entries returns every (app,user,right) grant, sorted, for state sync and
// snapshots. If app is non-empty only that application's entries are
// returned.
func (s *Store) Entries(app wire.AppID) []wire.ACLEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.ACLEntry
	appendApp := func(a wire.AppID, users map[wire.UserID]userRec) {
		for u, rec := range users {
			for _, r := range rec.rights.Rights() {
				out = append(out, wire.ACLEntry{App: a, User: u, Right: r})
			}
		}
	}
	if app != "" {
		appendApp(app, s.apps[app])
	} else {
		for a, users := range s.apps {
			appendApp(a, users)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Right < out[j].Right
	})
	return out
}

// Replace overwrites the store contents with the given entries (manager
// recovery sync, §3.4); nothing is vouched afterwards.
func (s *Store) Replace(entries []wire.ACLEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps = make(map[wire.AppID]map[wire.UserID]userRec, len(entries))
	s.slab, s.free = nil, nil
	for _, e := range entries {
		if e.Right.Valid() {
			s.grantLocked(e.App, e.User, e.Right)
		}
	}
}

// Len returns the total number of (app,user) pairs with at least one right.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, users := range s.apps {
		n += len(users)
	}
	return n
}

// cacheKey identifies a cached grant.
type cacheKey struct {
	app   wire.AppID
	user  wire.UserID
	right wire.Right
}

// Entry is a cached access right with its expiration limit (§3.2: "function
// lookup(ACL_cache(A),U) returns ... a tuple (U,limit), where limit is the
// expiration timestamp"). A zero Limit means the entry never expires (basic
// protocol, Figure 2).
type Entry struct {
	App   wire.AppID
	User  wire.UserID
	Right wire.Right
	Limit time.Time
	// Granters is how many distinct managers vouch for Limit: the evidence
	// a cache-hit audit record cites, read in the same probe as the entry.
	Granters int
}

// Expired reports whether the entry is past its limit at local time now.
func (e Entry) Expired(now time.Time) bool { return expired(e.Limit, now) }

func expired(limit, now time.Time) bool {
	return !limit.IsZero() && !now.Before(limit)
}

// cached is what the cache stores per key: the limit and the managers that
// confirmed it. The set is a slice because it holds at most M (a handful
// of) managers and only its length is ever read back.
type cached struct {
	limit    time.Time
	granters []wire.NodeID
}

func (k cacheKey) entry(v cached) Entry {
	return Entry{App: k.app, User: k.user, Right: k.right, Limit: v.limit, Granters: len(v.granters)}
}

// Cache is an application host's ACL_cache: the subset of access rights the
// host has learned from managers, each with an expiration timestamp. It is
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]cached
	// maxEntries bounds memory (§3.2 motivates eviction "to save memory and
	// processing overhead"); 0 means unbounded. When full, the entry with
	// the earliest expiration is evicted — it is the least valuable, since
	// it must be re-verified soonest anyway.
	maxEntries int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]cached)}
}

// SetMaxEntries bounds the number of cached entries (0 = unbounded). If
// the cache is already over the new bound, oldest-expiring entries are
// evicted immediately.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxEntries = n
	c.evictLocked()
}

// Put stores a grant with the given expiration limit (zero = no expiry)
// confirmed by granters, in one step: a concurrent lookup sees the entry
// with none or all of them. The managers vouching for an entry are those
// that confirmed its current limit, so a Put with a different limit (a
// refresh) starts a new set instead of adding to the superseded one.
func (c *Cache) Put(app wire.AppID, user wire.UserID, r wire.Right, limit time.Time, granters ...wire.NodeID) {
	k := cacheKey{app, user, r}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	if !ok || !v.limit.Equal(limit) {
		// The superseded set is never read again (lookups copy out its
		// length only), so a refresh reuses its slice when it fits.
		v = cached{limit: limit, granters: v.granters[:0]}
		if cap(v.granters) < len(granters) {
			v.granters = make([]wire.NodeID, 0, len(granters))
		}
	}
	for _, g := range granters {
		if !slices.Contains(v.granters, g) {
			v.granters = append(v.granters, g)
		}
	}
	c.entries[k] = v
	c.evictLocked()
}

// evictLocked enforces maxEntries by dropping earliest-expiring entries
// (never-expiring entries are treated as latest, breaking ties by key for
// determinism). Cache sizes are modest, so the linear scan per eviction is
// acceptable; hosts with heavy churn should also run a purge loop.
func (c *Cache) evictLocked() {
	if c.maxEntries <= 0 {
		return
	}
	for len(c.entries) > c.maxEntries {
		var victim cacheKey
		var victimLimit time.Time
		first := true
		for k, v := range c.entries {
			if first || evictBefore(v.limit, k, victimLimit, victim) {
				victim, victimLimit, first = k, v.limit, false
			}
		}
		delete(c.entries, victim)
	}
}

// evictBefore orders eviction candidates: earlier limit first (zero limit
// last), then lexical key order for determinism.
func evictBefore(a time.Time, ak cacheKey, b time.Time, bk cacheKey) bool {
	switch {
	case a.IsZero() && b.IsZero():
		// fall through to key comparison
	case a.IsZero():
		return false
	case b.IsZero():
		return true
	case !a.Equal(b):
		return a.Before(b)
	}
	if ak.app != bk.app {
		return ak.app < bk.app
	}
	if ak.user != bk.user {
		return ak.user < bk.user
	}
	return ak.right < bk.right
}

// LookupStatus is the outcome of a cache lookup.
type LookupStatus uint8

// Lookup outcomes.
const (
	// Miss: no entry was cached.
	Miss LookupStatus = iota + 1
	// Hit: a fresh entry was found.
	Hit
	// Expired: an entry was found but had passed its limit; it has been
	// removed (Figure 3's "else ACL_cache(A) -= U").
	Expired
)

// Lookup returns the entry for (app,user,r) if present and not expired at
// now. Expired entries are removed as a side effect, mirroring Figure 3's
// "else ACL_cache(A) -= U".
func (c *Cache) Lookup(app wire.AppID, user wire.UserID, r wire.Right, now time.Time) (Entry, bool) {
	e, st := c.LookupStatus(app, user, r, now)
	return e, st == Hit
}

// LookupStatus is Lookup with a three-way outcome, letting callers
// distinguish a cold miss from an expiration (the protocol traces these
// differently).
func (c *Cache) LookupStatus(app wire.AppID, user wire.UserID, r wire.Right, now time.Time) (Entry, LookupStatus) {
	k := cacheKey{app, user, r}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[k]
	if !ok {
		return Entry{}, Miss
	}
	if expired(v.limit, now) {
		delete(c.entries, k)
		return Entry{}, Expired
	}
	return k.entry(v), Hit
}

// Granters returns how many distinct managers currently vouch for the entry.
func (c *Cache) Granters(app wire.AppID, user wire.UserID, r wire.Right) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries[cacheKey{app, user, r}].granters)
}

// Remove deletes the entry for (app,user,r); removing an absent entry is a
// no-op (§3.1). It reports whether an entry was present.
func (c *Cache) Remove(app wire.AppID, user wire.UserID, r wire.Right) bool {
	k := cacheKey{app, user, r}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	delete(c.entries, k)
	return ok
}

// RemoveUser flushes every cached right of user on app (Figure 2's
// "ACL_cache(A) -= U" removes the user's entry wholesale).
func (c *Cache) RemoveUser(app wire.AppID, user wire.UserID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.entries {
		if k.app == app && k.user == user {
			delete(c.entries, k)
			n++
		}
	}
	return n
}

// PurgeExpired removes all entries expired at now and returns how many were
// dropped. The paper suggests a periodic check "to eliminate entries of
// users who have not accessed the application recently, which can save
// memory and processing overhead" (§3.2).
func (c *Cache) PurgeExpired(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, v := range c.entries {
		if expired(v.limit, now) {
			delete(c.entries, k)
			n++
		}
	}
	return n
}

// Clear empties the cache (host recovery, §3.4: "ACL_cache(A) can simply be
// initialized to null").
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]cached)
}

// Len returns the number of cached entries (including ones that have
// expired but not yet been looked up or purged).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Snapshot returns all entries sorted, for debugging and tests.
func (c *Cache) Snapshot() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.entries))
	for k, v := range c.entries {
		out = append(out, k.entry(v))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Right < out[j].Right
	})
	return out
}
