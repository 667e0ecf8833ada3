package rnic

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU[int](2)
	if c.Access(1) {
		t.Fatal("first access must miss")
	}
	if !c.Access(1) {
		t.Fatal("second access must hit")
	}
	c.Access(2)
	c.Access(3) // evicts 1 (LRU)
	if c.Access(1) {
		t.Fatal("evicted key must miss")
	}
	// 1's re-insert evicted 2.
	if c.Access(2) {
		t.Fatal("2 should have been evicted")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 5 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestLRUAccessOrderMatters(t *testing.T) {
	c := newLRU[string](2)
	c.Access("a")
	c.Access("b")
	c.Access("a") // refresh a; b is now LRU
	c.Access("c") // evicts b
	if !c.Access("a") {
		t.Fatal("a should be resident")
	}
	if c.Access("b") {
		t.Fatal("b should be evicted")
	}
}

func TestLRUInvalidate(t *testing.T) {
	c := newLRU[int](4)
	c.Access(7)
	c.Invalidate(7)
	if c.Access(7) {
		t.Fatal("invalidated key must miss")
	}
	c.Invalidate(999) // no-op
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// Property: the cache never exceeds capacity and behaves identically
// to a reference LRU implementation.
func TestQuickLRUMatchesReference(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := newLRU[int](capacity)
		// Reference: slice ordered most-recent first.
		var ref []int
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			k := rng.Intn(capacity * 3)
			// Reference behaviour.
			refHit := false
			for idx, v := range ref {
				if v == k {
					refHit = true
					ref = append(ref[:idx], ref[idx+1:]...)
					break
				}
			}
			ref = append([]int{k}, ref...)
			if len(ref) > capacity {
				ref = ref[:capacity]
			}
			if got := c.Access(k); got != refHit {
				t.Logf("key %d: got hit=%v, ref hit=%v", k, got, refHit)
				return false
			}
			if c.Len() > capacity {
				t.Logf("len %d > cap %d", c.Len(), capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// listLRU is the reference model for TestLRUMatchesListModel: the
// textbook LRU over container/list, most recently used at the front.
type listLRU struct {
	cap          int
	l            *list.List
	m            map[int]*list.Element
	hits, misses int64
}

func newListLRU(capacity int) *listLRU {
	return &listLRU{cap: capacity, l: list.New(), m: make(map[int]*list.Element)}
}

func (r *listLRU) Access(k int) bool {
	if e, ok := r.m[k]; ok {
		r.l.MoveToFront(e)
		r.hits++
		return true
	}
	r.misses++
	if r.l.Len() >= r.cap {
		old := r.l.Back()
		r.l.Remove(old)
		delete(r.m, old.Value.(int))
	}
	r.m[k] = r.l.PushFront(k)
	return false
}

func (r *listLRU) Invalidate(k int) {
	if e, ok := r.m[k]; ok {
		r.l.Remove(e)
		delete(r.m, k)
	}
}

// order returns the resident keys, most recently used first.
func (r *listLRU) order() []int {
	var ks []int
	for e := r.l.Front(); e != nil; e = e.Next() {
		ks = append(ks, e.Value.(int))
	}
	return ks
}

// recency returns c's resident keys, most recently used first, walking
// the slot links; it fails the test if the links and Len disagree.
func recency(t *testing.T, c *lru[int]) []int {
	t.Helper()
	var ks []int
	prev := int32(-1)
	for s := c.head; s >= 0; s = c.slots[s].next {
		if c.slots[s].prev != prev {
			t.Fatalf("slot %d: prev link %d, want %d", s, c.slots[s].prev, prev)
		}
		if len(ks) > c.Len() {
			t.Fatal("recency list longer than Len: a cycle")
		}
		ks = append(ks, c.slots[s].key)
		prev = s
	}
	if prev != c.tail {
		t.Fatalf("tail %d, last linked slot %d", c.tail, prev)
	}
	return ks
}

// TestLRUMatchesListModel drives the slot-array LRU, through both of
// its key indexes, and the container/list model with the same seeded
// Access/Invalidate streams. Every answer, Len, Stats and the whole
// recency order (and with it which key each miss evicts) must agree
// after every operation.
func TestLRUMatchesListModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		for _, keys := range []int{capacity/2 + 1, capacity + 1, 3 * capacity} {
			for _, dense := range []bool{true, false} {
				c := newLRU[int](capacity)
				if dense {
					c = newDenseLRU[int](capacity)
				}
				ref := newListLRU(capacity)
				rng := rand.New(rand.NewSource(int64(capacity*1000 + keys)))
				for op := 0; op < 5000; op++ {
					k := rng.Intn(keys)
					what := "access"
					if rng.Intn(8) == 0 {
						what = "invalidate"
						c.Invalidate(k)
						ref.Invalidate(k)
					} else if got, want := c.Access(k), ref.Access(k); got != want {
						t.Fatalf("cap %d keys %d dense %v op %d: Access(%d) = %v, want %v", capacity, keys, dense, op, k, got, want)
					}
					if c.Len() != ref.l.Len() {
						t.Fatalf("cap %d keys %d dense %v op %d (%s %d): Len %d, want %d", capacity, keys, dense, op, what, k, c.Len(), ref.l.Len())
					}
					if got, want := recency(t, c), ref.order(); !slices.Equal(got, want) {
						t.Fatalf("cap %d keys %d dense %v op %d (%s %d): recency %v, want %v", capacity, keys, dense, op, what, k, got, want)
					}
					if h, m := c.Stats(); h != ref.hits || m != ref.misses {
						t.Fatalf("cap %d keys %d dense %v op %d: stats %d/%d, want %d/%d", capacity, keys, dense, op, h, m, ref.hits, ref.misses)
					}
				}
			}
		}
	}
}
