package rnic

// lru is a fixed-capacity LRU set used to model on-NIC SRAM caches
// (MR protection keys, page-table entries, QP contexts).
//
// The resident keys live in a slot array linked by slot index into a
// recency list, most recent at head, so an access allocates nothing: a
// hit relinks its slot at the head, and a miss on a full cache reuses
// the tail's slot for the new key. Where a key sits is kept by a
// slotIndex: a slice indexed by the key itself for the dense ids the
// NIC hands out (QPNs, protection keys), a map for sparse keys (PTEs).
type lru[K comparable] struct {
	cap        int
	slots      []lruSlot[K]
	head, tail int32 // -1 when empty
	index      slotIndex[K]
	hits       int64
	misses     int64
}

// lruSlot is one resident key and its neighbours in recency order:
// prev is the more recently used, next the less.
type lruSlot[K comparable] struct {
	key        K
	prev, next int32
}

// slotIndex finds a resident key's slot.
type slotIndex[K comparable] interface {
	get(k K) (int32, bool)
	set(k K, slot int32)
	del(k K)
}

// newLRU returns an LRU whose keys are found through a map.
func newLRU[K comparable](capacity int) *lru[K] {
	return newLRUWith[K](capacity, mapIndex[K]{})
}

// newDenseLRU returns an LRU over small non-negative integer keys,
// found through a slice indexed by key.
func newDenseLRU[K denseKey](capacity int) *lru[K] {
	return newLRUWith[K](capacity, &denseIndex[K]{})
}

func newLRUWith[K comparable](capacity int, index slotIndex[K]) *lru[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K]{cap: capacity, head: -1, tail: -1, index: index}
}

// Access touches key k and reports whether it was resident (a hit).
// On a miss the key is inserted, evicting the least recently used
// entry if the cache is full.
func (c *lru[K]) Access(k K) bool {
	if s, ok := c.index.get(k); ok {
		if s != c.head {
			c.unlink(s)
			c.pushFront(s)
		}
		c.hits++
		return true
	}
	c.misses++
	var s int32
	if len(c.slots) >= c.cap {
		s = c.tail
		c.index.del(c.slots[s].key)
		c.unlink(s)
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot[K]{})
	}
	c.slots[s].key = k
	c.pushFront(s)
	c.index.set(k, s)
	return false
}

// Invalidate removes k from the cache if present. The last slot moves
// into the freed one, so the resident keys stay packed.
func (c *lru[K]) Invalidate(k K) {
	s, ok := c.index.get(k)
	if !ok {
		return
	}
	c.index.del(k)
	c.unlink(s)
	last := int32(len(c.slots) - 1)
	if s != last {
		m := c.slots[last]
		c.slots[s] = m
		c.relink(m.prev, m.next, s)
		c.index.set(m.key, s)
	}
	c.slots = c.slots[:last]
}

// unlink takes slot s out of the recency list.
func (c *lru[K]) unlink(s int32) {
	e := &c.slots[s]
	if e.prev >= 0 {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot s in as the most recently used.
func (c *lru[K]) pushFront(s int32) {
	e := &c.slots[s]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
}

// relink points the neighbours prev and next of a linked entry at its
// new slot s.
func (c *lru[K]) relink(prev, next, s int32) {
	if prev >= 0 {
		c.slots[prev].next = s
	} else {
		c.head = s
	}
	if next >= 0 {
		c.slots[next].prev = s
	} else {
		c.tail = s
	}
}

// mapIndex is the slotIndex for sparse keys.
type mapIndex[K comparable] map[K]int32

func (m mapIndex[K]) get(k K) (int32, bool) { s, ok := m[k]; return s, ok }
func (m mapIndex[K]) set(k K, s int32)      { m[k] = s }
func (m mapIndex[K]) del(k K)               { delete(m, k) }

// denseKey is a key type the NIC hands out densely from a small
// counter: QPNs and protection keys.
type denseKey interface{ ~int | ~uint32 }

// denseIndex is the slotIndex for dense keys: pos[k] is k's slot plus
// one, zero when k is not resident. It grows to cover the largest key
// seen; a negative key is never resident.
type denseIndex[K denseKey] struct{ pos []int32 }

func (d *denseIndex[K]) get(k K) (int32, bool) {
	i := int(k)
	if i < 0 || i >= len(d.pos) {
		return 0, false
	}
	s := d.pos[i] - 1
	return s, s >= 0
}

func (d *denseIndex[K]) set(k K, s int32) {
	i := int(k)
	if i >= len(d.pos) {
		d.pos = append(d.pos, make([]int32, i+1-len(d.pos))...)
	}
	d.pos[i] = s + 1
}

func (d *denseIndex[K]) del(k K) {
	if i := int(k); i >= 0 && i < len(d.pos) {
		d.pos[i] = 0
	}
}
