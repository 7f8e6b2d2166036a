package acl

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"wanac/internal/wire"
)

// bytesBudgetUsers is how many users the byte budgets below spread over:
// enough that a table's fixed costs and growth steps average out, and the
// size of a cold-tcp manager's user table.
const bytesBudgetUsers = 1 << 16

// liveHeap returns the bytes a full collection finds live.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func budgetUsers() []wire.UserID {
	users := make([]wire.UserID, bytesBudgetUsers)
	for i := range users {
		users[i] = wire.UserID("u" + strconv.Itoa(i))
	}
	return users
}

// TestStoreBytesPerVouch: what a manager keeps per host it told "yes" is
// most of its per-user state. Vouching every user of a seeded table to one
// host, then to a second, must cost at most 40 bytes of live heap per vouch
// each time.
func TestStoreBytesPerVouch(t *testing.T) {
	const budget = 40
	users := budgetUsers()
	s := NewStore()
	for _, u := range users {
		s.Grant("app", u, wire.RightUse)
	}
	now := time.Unix(1000, 0).UTC()
	deadline := now.Add(time.Minute)
	prev := liveHeap()
	for i, host := range []wire.NodeID{"h0", "h1"} {
		for _, u := range users {
			s.Vouch("app", u, wire.RightUse, host, deadline, now)
		}
		cur := liveHeap()
		if per := float64(cur-prev) / bytesBudgetUsers; per > budget {
			t.Errorf("host %d: %.1f B of live heap per vouch, want <= %d", i+1, per, budget)
		} else {
			t.Logf("host %d: %.1f B per vouch", i+1, per)
		}
		prev = cur
	}
	runtime.KeepAlive(s)
}

// TestCacheBytesPerEntry: a host's ACL_cache keeps one entry per user it has
// checked recently. A cached grant must cost at most 72 bytes of live heap,
// its user table's share included; the user id is the caller's.
func TestCacheBytesPerEntry(t *testing.T) {
	const budget = 72
	users := budgetUsers()
	c := NewCache()
	limit := time.Unix(2000, 0).UTC()
	prev := liveHeap()
	for _, u := range users {
		c.Put("app", u, wire.RightUse, limit, "m0", "m1")
	}
	if per := float64(liveHeap()-prev) / bytesBudgetUsers; per > budget {
		t.Errorf("%.1f B of live heap per cached entry, want <= %d", per, budget)
	} else {
		t.Logf("%.1f B per cached entry", per)
	}
	runtime.KeepAlive(c)
}
