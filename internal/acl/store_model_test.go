package acl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wanac/internal/wire"
)

// storeKey names one right of one user in the store's model.
type storeKey struct {
	app   wire.AppID
	user  wire.UserID
	right wire.Right
}

// storeModel is the store as plain maps: the rights held, and per right the
// deadline last vouched to each host. It never forgets a host; the store may
// forget one whose deadline has passed, so only the unexpired vouches of the
// two must agree.
type storeModel struct {
	held    map[storeKey]bool
	vouched map[storeKey]map[wire.NodeID]time.Time
}

// TestStoreAgainstModel drives Store and storeModel through the same seeded
// random Grants, Vouches (deadlines behind and ahead of an advancing clock,
// and zero ones), Withdraws and Revokes over 2 apps × 4 users × 2 rights ×
// 6 hosts. After every step Has must agree with the model, every
// pool record must be on exactly one list — a user's or the free list —
// with a right its user holds and a vouch the model made, and every vouch
// of the model's that has not expired must be listed. Every Withdraw must
// return the model's unexpired vouches, sorted by host, with their
// deadlines.
func TestStoreAgainstModel(t *testing.T) {
	apps := []wire.AppID{"a", "b"}
	users := []wire.UserID{"u0", "u1", "u2", "u3"}
	rights := []wire.Right{wire.RightUse, wire.RightManage}
	hosts := []wire.NodeID{"h0", "h1", "h2", "h3", "h4", "h5"}
	base := time.Unix(1000, 0).UTC()
	rel := func(t time.Time) string {
		if t.IsZero() {
			return "never"
		}
		return t.Sub(base).String()
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, m := NewStore(), storeModel{map[storeKey]bool{}, map[storeKey]map[wire.NodeID]time.Time{}}
		now := base
		pick := func() storeKey {
			return storeKey{apps[rng.Intn(len(apps))], users[rng.Intn(len(users))], rights[rng.Intn(len(rights))]}
		}
		for step := 0; step < 300; step++ {
			var op string
			switch n := rng.Intn(100); {
			case n < 20:
				k := pick()
				op = fmt.Sprintf("Grant(%v)", k)
				if got := s.Grant(k.app, k.user, k.right); got == m.held[k] {
					t.Fatalf("seed %d step %d: %s = %v, model held it: %v", seed, step, op, got, m.held[k])
				}
				m.held[k] = true
			case n < 65:
				k, h := pick(), hosts[rng.Intn(len(hosts))]
				now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
				var deadline time.Time
				if d := rng.Intn(6); d > 0 {
					deadline = now.Add(time.Duration(d-2) * time.Second)
				}
				op = fmt.Sprintf("Vouch(%v, %s, %s) at %v", k, h, rel(deadline), rel(now))
				if got := s.Vouch(k.app, k.user, k.right, h, deadline, now); got != m.held[k] {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, got, m.held[k])
				}
				if m.held[k] {
					if m.vouched[k] == nil {
						m.vouched[k] = map[wire.NodeID]time.Time{}
					}
					m.vouched[k][h] = deadline
				}
			default:
				k := pick()
				var changed bool
				if n < 82 {
					op = fmt.Sprintf("Withdraw(%v) at %v", k, rel(now))
					var got []Vouch
					got, changed = s.Withdraw(k.app, k.user, k.right)
					if err := checkWithdrawn(got, m.vouched[k], k.right, now); err != nil {
						t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
					}
				} else {
					op = fmt.Sprintf("Revoke(%v)", k)
					changed = s.Revoke(k.app, k.user, k.right)
				}
				if changed != m.held[k] {
					t.Fatalf("seed %d step %d: %s changed = %v, model held it: %v", seed, step, op, changed, m.held[k])
				}
				delete(m.held, k)
				delete(m.vouched, k)
			}
			for _, app := range apps {
				for _, user := range users {
					for _, r := range rights {
						if k := (storeKey{app, user, r}); s.Has(app, user, r) != m.held[k] {
							t.Fatalf("seed %d step %d: after %s Has(%v) = %v, model %v", seed, step, op, k, !m.held[k], m.held[k])
						}
					}
				}
			}
			if err := s.checkPool(m.vouched, now); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, op, err)
			}
		}
	}
}

// checkWithdrawn reports how vouches returned by Withdraw of right r at now
// differ from the model's vouches of r: each must be one the model made, the
// unexpired ones all of the model's unexpired ones, and the hosts ascending.
func checkWithdrawn(got []Vouch, model map[wire.NodeID]time.Time, r wire.Right, now time.Time) error {
	var have, want []wire.NodeID
	for i, v := range got {
		d, ok := model[v.Host]
		if !ok || v.Right != r || !v.Deadline.Equal(d) || v.Deadline.Location() != d.Location() {
			return fmt.Errorf("returned %+v; model has %v for %s (listed: %v)", v, d, v.Host, ok)
		}
		if i > 0 && got[i-1].Host >= v.Host {
			return fmt.Errorf("hosts not ascending: %+v", got)
		}
		if !expired(d, now) {
			have = append(have, v.Host)
		}
	}
	for h, d := range model {
		if !expired(d, now) {
			want = append(want, h)
		}
	}
	slices.Sort(want)
	if !slices.Equal(have, want) {
		return fmt.Errorf("unexpired vouches %v, model %v", have, want)
	}
	return nil
}

// checkPool reports a pool record on no list or on two, or on a user's list
// with a right the user does not hold or a vouch the model never made, and
// a vouch of the model's unexpired at now that no list holds.
func (s *Store) checkPool(model map[storeKey]map[wire.NodeID]time.Time, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen, live := make([]bool, len(s.pool)), 0
	visit := func(i int32, list string) error {
		if i <= 0 || int(i) >= len(s.pool) || seen[i] {
			return fmt.Errorf("record %d is out of the pool (%d) or on two lists, the second %s", i, len(s.pool), list)
		}
		seen[i] = true
		return nil
	}
	for app, users := range s.apps {
		for user, rec := range users {
			for i := rec.head; i != 0; i = s.pool[i].next {
				if err := visit(i, fmt.Sprintf("%s/%s's", app, user)); err != nil {
					return err
				}
				n := s.pool[i]
				d, ok := model[storeKey{app, user, n.right}][n.host]
				if !ok || !rec.rights.Has(n.right) {
					return fmt.Errorf("%s/%s lists %+v; holds %v, model vouched: %v", app, user, n, rec.rights.Rights(), ok)
				}
				if !expired(d, now) {
					live++
				}
			}
		}
	}
	for i := s.free; i != 0; i = s.pool[i].next {
		if err := visit(i, "the free list"); err != nil {
			return err
		}
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i] {
			return fmt.Errorf("record %d is on no list", i)
		}
	}
	want := 0
	for _, hosts := range model {
		for _, d := range hosts {
			if !expired(d, now) {
				want++
			}
		}
	}
	if live != want {
		return fmt.Errorf("lists hold %d unexpired vouches, model %d", live, want)
	}
	return nil
}
