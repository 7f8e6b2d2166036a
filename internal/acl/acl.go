// Package acl implements the access-control-list data structures of the
// system: the authoritative Store kept by managers (the full access control
// list per application, §2.2) and the expiring Cache kept by application
// hosts (ACL_cache(A), §3.1-3.2).
package acl

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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
	// pool holds every user's vouch list as linked nodes; pool[0] is the nil
	// link, and free heads the list of released nodes. Keeping the lists out
	// of the map value keeps seeding a large user table as cheap as a map of
	// bare RightSets.
	pool  []vnode
	free  int32
	epoch epoch
}

// userRec is the user table's value: the rights held, and the pool index of
// the first node of the user's vouch list (0: nothing vouched).
type userRec struct {
	rights RightSet
	head   int32
}

// vnode is one Vouch in the pool: its deadline as an offset from the store's
// epoch, and the pool index of the user's next vouch (0: the last).
type vnode struct {
	host  wire.NodeID
	until int64
	next  int32
	right wire.Right
}

// epoch turns deadlines into offsets from the first non-zero one it sees,
// so a table stores 8 bytes where a time.Time takes 24. never stands for
// the zero ("no expiry") deadline and orders after every other offset.
type epoch struct{ t time.Time }

const never = math.MaxInt64

func (e *epoch) offset(t time.Time) int64 {
	if t.IsZero() {
		return never
	}
	if e.t.IsZero() {
		e.t = t
	}
	return min(int64(t.Sub(e.t)), never-1)
}

// since returns now as an offset: a deadline at offset d has passed at now
// exactly when d <= e.since(now), and never has not.
func (e *epoch) since(now time.Time) int64 { return min(int64(now.Sub(e.t)), never-1) }

// time rebuilds the deadline an offset stands for.
func (e *epoch) time(d int64) time.Time {
	if d == never {
		return time.Time{}
	}
	return e.t.Add(time.Duration(d))
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
	return &Store{apps: make(map[wire.AppID]map[wire.UserID]userRec), pool: make([]vnode, 1)}
}

// Grant adds right r on app for user. It reports whether the store changed.
func (s *Store) Grant(app wire.AppID, user wire.UserID, r wire.Right) bool {
	if !r.Valid() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
	_, changed := s.Withdraw(app, user, r, nil)
	return changed
}

// Withdraw is Revoke appending to vouched the vouches that went with the
// right, sorted by host id: the hosts the revocation is to be forwarded to.
// A caller that passes its last result back, emptied, withdraws without
// allocating. user must be the caller's own string, never a view of a frame
// (see Vouch).
func (s *Store) Withdraw(app wire.AppID, user wire.UserID, r wire.Right, vouched []Vouch) ([]Vouch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := s.apps[app]
	rec, ok := users[user]
	if !ok || !rec.rights.Has(r) {
		return vouched, false
	}
	start := len(vouched)
	rec.rights = rec.rights.Without(r)
	// Unlink and free r's nodes. Only held rights have nodes, so a user
	// left with no rights is left with no nodes.
	for link := &rec.head; *link != 0; {
		i := *link
		n := &s.pool[i]
		if n.right != r {
			link = &n.next
			continue
		}
		vouched = append(vouched, Vouch{Host: n.host, Deadline: s.epoch.time(n.until), Right: r})
		*link = n.next
		*n = vnode{next: s.free}
		s.free = i
	}
	slices.SortFunc(vouched[start:], func(a, b Vouch) int { return cmp.Compare(a.Host, b.Host) })
	if !rec.rights.Empty() {
		users[user] = rec // stores user as the key: it must be owned
		return vouched, true
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
//
// user must be the caller's own string, never a view of a frame: assigning
// to a key already in a map stores the new string as the key, so a lent id
// would become the store's key and alias the frame for as long as the user
// holds a right.
func (s *Store) Vouch(app wire.AppID, user wire.UserID, r wire.Right, host wire.NodeID, deadline, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	users := s.apps[app]
	rec := users[user]
	if !rec.rights.Has(r) {
		return false
	}
	until := s.epoch.offset(deadline)
	var stale, tail int32
	for i := rec.head; i != 0; i = s.pool[i].next {
		switch n := &s.pool[i]; {
		case n.right != r:
		case n.host == host:
			n.until = until
			return true
		case stale == 0 && n.until <= s.epoch.since(now):
			stale = i
		}
		tail = i
	}
	if stale != 0 {
		s.pool[stale].host, s.pool[stale].until = host, until
		return true
	}
	// Append at the tail, so the list stays in vouching order.
	i := s.free
	if i != 0 {
		s.free = s.pool[i].next
		s.pool[i] = vnode{host: host, until: until, right: r}
	} else {
		i = int32(len(s.pool))
		s.pool = append(s.pool, vnode{host: host, until: until, right: r})
	}
	if tail != 0 {
		s.pool[tail].next = i
	} else {
		rec.head = i
		users[user] = rec // stores user as the key: it must be owned
	}
	return true
}

// Has reports whether user holds right r on app.
func (s *Store) Has(app wire.AppID, user wire.UserID, r wire.Right) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[app][user].rights.Has(r)
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
	slices.SortFunc(out, func(a, b wire.ACLEntry) int {
		return cmp.Or(cmp.Compare(a.App, b.App), cmp.Compare(a.User, b.User), cmp.Compare(a.Right, b.Right))
	})
	return out
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

// cached is what the cache stores per user: the limit as an offset from the
// cache's epoch, and the managers that confirmed it, as bits of the
// application's granter table.
type cached struct {
	limit    int64
	granters uint64
}

// maxGranters is how many distinct managers an application's entries can
// name: one bit each in cached.granters.
const maxGranters = 64

// Table is one application's ACL_cache within a Cache: a user table per
// right, and the managers whose positions in granters the entries' bits
// stand for. A table is kept for the life of its cache once the application
// has one (a host caches for the few applications it registered) — Clear
// and the 65th granter empty it in place — so refilling it allocates
// nothing, and a host holds its registered applications' tables
// (Cache.Table) to probe one without looking the application up.
type Table struct {
	c        *Cache
	users    [2]map[wire.UserID]cached // indexed by right: RightUse, RightManage
	granters []wire.NodeID
}

// table returns the user table for a valid right r.
func (a *Table) table(r wire.Right) map[wire.UserID]cached { return a.users[r-1] }

// bits maps granters to their bits, adding new managers to the granter
// table. It reports false, leaving mask incomplete, when the table is full.
func (a *Table) bits(granters []wire.NodeID) (mask uint64, ok bool) {
	for _, g := range granters {
		i := slices.Index(a.granters, g)
		if i < 0 {
			if len(a.granters) == maxGranters {
				return mask, false
			}
			i = len(a.granters)
			a.granters = append(a.granters, g)
		}
		mask |= 1 << i
	}
	return mask, true
}

// empty drops the table's entries and granters, keeping its storage. Must be
// called with a.c.mu held.
func (a *Table) empty() {
	for _, users := range a.users {
		a.c.n -= len(users)
		clear(users)
	}
	a.granters = a.granters[:0]
}

// Cache is an application host's ACL_cache: the subset of access rights the
// host has learned from managers, each with an expiration timestamp and the
// managers that confirmed it. Per application it keeps one user table per
// right, whose values are the limit and a bitmask over the application's
// table of granters, so a grant stores no per-entry set. It is safe for
// concurrent use.
type Cache struct {
	mu   sync.Mutex
	apps map[wire.AppID]*Table
	n    int // entries across every table
	// maxEntries bounds memory (§3.2 motivates eviction "to save memory and
	// processing overhead"); 0 means unbounded. When full, the entry with
	// the earliest expiration is evicted — it is the least valuable, since
	// it must be re-verified soonest anyway.
	maxEntries int
	epoch      epoch
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{apps: make(map[wire.AppID]*Table)}
}

// Table returns app's table, making it if app has none.
func (c *Cache) Table(app wire.AppID) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appTable(app)
}

// appTable is Table with c.mu held.
func (c *Cache) appTable(app wire.AppID) *Table {
	a := c.apps[app]
	if a == nil {
		a = &Table{c: c}
		c.apps[app] = a
	}
	return a
}

// each calls fn for every entry; fn may delete the entry it is given.
func (c *Cache) each(fn func(k cacheKey, v cached, users map[wire.UserID]cached)) {
	for app, a := range c.apps {
		for i, users := range a.users {
			r := wire.Right(i + 1)
			for u, v := range users {
				fn(cacheKey{app, u, r}, v, users)
			}
		}
	}
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
// refresh) starts a new set instead of adding to the superseded one. A Put
// of an invalid right stores nothing, as Store.Grant does.
//
// An application's entries can name 64 distinct managers between them. A
// Put that would name a 65th empties the application's tables and granter
// table first: the cache is soft state (§3.4), and an emptied entry is
// refilled by the normal algorithm.
func (c *Cache) Put(app wire.AppID, user wire.UserID, r wire.Right, limit time.Time, granters ...wire.NodeID) {
	if !r.Valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.appTable(app)
	mask, ok := a.bits(granters)
	if !ok {
		a.empty()
		mask, _ = a.bits(granters)
	}
	users := a.table(r)
	if users == nil {
		users = make(map[wire.UserID]cached)
		a.users[r-1] = users
	}
	v, ok := users[user]
	if !ok {
		c.n++
	}
	if off := c.epoch.offset(limit); !ok || v.limit != off {
		v = cached{limit: off}
	}
	v.granters |= mask
	users[user] = v
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
	for c.n > c.maxEntries {
		var victim cacheKey
		var victimLimit int64
		var victimTable map[wire.UserID]cached
		c.each(func(k cacheKey, v cached, users map[wire.UserID]cached) {
			if victimTable == nil || evictBefore(v.limit, k, victimLimit, victim) {
				victim, victimLimit, victimTable = k, v.limit, users
			}
		})
		delete(victimTable, victim.user)
		c.n--
	}
}

// evictBefore orders eviction candidates: earlier limit first (never last),
// then lexical key order for determinism.
func evictBefore(a int64, ak cacheKey, b int64, bk cacheKey) bool {
	if a != b {
		return a < b
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

// LookupStatus returns the entry for (app,user,r) and whether it was a hit:
// present and not expired at now. An expired entry is removed as a side
// effect, mirroring Figure 3's "else ACL_cache(A) -= U"; Miss and Expired
// let callers tell a cold miss from an expiration (the protocol traces these
// differently).
func (c *Cache) LookupStatus(app wire.AppID, user wire.UserID, r wire.Right, now time.Time) (Entry, LookupStatus) {
	if !r.Valid() {
		return Entry{}, Miss
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.apps[app]
	if a == nil {
		return Entry{}, Miss
	}
	users := a.table(r)
	v, ok := users[user]
	if !ok {
		return Entry{}, Miss
	}
	if v.limit <= c.epoch.since(now) {
		delete(users, user)
		c.n--
		return Entry{}, Expired
	}
	return Entry{App: app, User: user, Right: r, Limit: c.epoch.time(v.limit), Granters: bits.OnesCount64(v.granters)}, Hit
}

// Forever is the time left of an entry that never expires.
const Forever time.Duration = never

// Lookup is LookupStatus in one table, for a check that reads only what a
// hit's evidence needs: the entry's time left at now (Forever if it never
// expires) and how many managers vouch for it, read under the cache's lock
// in the one probe, with no Entry or time.Time built.
func (a *Table) Lookup(user wire.UserID, r wire.Right, now time.Time) (left time.Duration, granters int, st LookupStatus) {
	if !r.Valid() {
		return 0, 0, Miss
	}
	c := a.c
	c.mu.Lock()
	users := a.table(r)
	v, ok := users[user]
	at := c.epoch.since(now)
	switch {
	case !ok:
		st = Miss
	case v.limit <= at:
		delete(users, user)
		c.n--
		st = Expired
	default:
		st, left, granters = Hit, Forever, bits.OnesCount64(v.granters)
		if v.limit != never {
			left = time.Duration(v.limit - at)
		}
	}
	c.mu.Unlock()
	return left, granters, st
}

// Granters returns how many distinct managers currently vouch for the entry.
func (c *Cache) Granters(app wire.AppID, user wire.UserID, r wire.Right) int {
	if !r.Valid() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.apps[app]
	if a == nil {
		return 0
	}
	return bits.OnesCount64(a.table(r)[user].granters)
}

// Remove deletes the entry for (app,user,r); removing an absent entry is a
// no-op (§3.1). It reports whether an entry was present.
func (c *Cache) Remove(app wire.AppID, user wire.UserID, r wire.Right) bool {
	if !r.Valid() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.apps[app]
	if a == nil {
		return false
	}
	users := a.table(r)
	if _, ok := users[user]; !ok {
		return false
	}
	delete(users, user)
	c.n--
	return true
}

// PurgeExpired removes all entries expired at now and returns how many were
// dropped. The paper suggests a periodic check "to eliminate entries of
// users who have not accessed the application recently, which can save
// memory and processing overhead" (§3.2).
func (c *Cache) PurgeExpired(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, at := 0, c.epoch.since(now)
	c.each(func(k cacheKey, v cached, users map[wire.UserID]cached) {
		if v.limit <= at {
			delete(users, k.user)
			n++
		}
	})
	c.n -= n
	return n
}

// Clear empties the cache (host recovery, §3.4: "ACL_cache(A) can simply be
// initialized to null"). It empties every table in place, so a handle from
// Table stays the application's table.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.apps {
		a.empty()
	}
}

// Len returns the number of cached entries (including ones that have
// expired but not yet been looked up or purged).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Census reports how many entries the cache holds and how many of them are
// past their limit at now, without copying them.
func (c *Cache) Census(now time.Time) (entries, stale int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.each(func(_ cacheKey, v cached, _ map[wire.UserID]cached) {
		entries++
		if (Entry{Limit: c.epoch.time(v.limit)}).Expired(now) {
			stale++
		}
	})
	return entries, stale
}

// snapshot returns all entries sorted, for tests.
func (c *Cache) snapshot() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.n)
	c.each(func(k cacheKey, v cached, _ map[wire.UserID]cached) {
		out = append(out, Entry{App: k.app, User: k.user, Right: k.right, Limit: c.epoch.time(v.limit), Granters: bits.OnesCount64(v.granters)})
	})
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.App, b.App), cmp.Compare(a.User, b.User), cmp.Compare(a.Right, b.Right))
	})
	return out
}
