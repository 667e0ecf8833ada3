package simtime

import "math/bits"

// This file implements the calendar-queue event scheduler: a two-level
// hierarchical timing wheel with a same-instant run queue below it and
// an overflow heap above it.
//
// The tiers match the workload's bimodal delay distribution:
//
//   - runq: a FIFO ring for events scheduled at exactly the current
//     instant (signals, yields, zero-length sleeps). Pushing and
//     popping are O(1) with no ordering work at all, because seq
//     order and FIFO push order coincide.
//   - L0 wheel: 4096 buckets of 256 ns. One lap covers ~1.05 ms —
//     NIC pipeline stages, link serialization, syscall costs, and
//     almost every RPC-scale timer land here. Buckets are kept
//     sorted, so popping is O(1). An insert scans back from the
//     bucket's tail and shifts the events it passes up one slot: an
//     event scheduled later often fires earlier than one already in
//     its bucket, but rarely by much. Events passed per L0 insert at
//     seed 1 (benchmark workloads, 12 s runs):
//
//                      inserts   0 (append)  <= 1   <= 4   <= 15   mean
//         rpc-small    6.92 M       30 %     48 %   82 %   99.8 %  2.4
//         kv-direct   11.81 M       54 %     69 %   95 %  100 %    1.2
//         mem-mixed    4.27 M       68 %     84 %   97 %  100 %    0.7
//         fleet        4.43 M       34 %     50 %   80 %   99.1 %  2.6
//
//     A scan that short costs less than a binary search followed by
//     a memmove of every event after the slot.
//   - L1 wheel: 4096 buckets of ~1.05 ms, covering ~4.3 s. Buckets
//     are unsorted; when the clock reaches a bucket it cascades into
//     L0, which sorts on insert. RC timeouts, lease expiries, and
//     heartbeat timers land here.
//   - overflow: a min-heap on (t, seq) for events beyond the L1
//     horizon (rare: multi-second experiment deadlines).
//
// Ordering contract: pop returns events in strictly nondecreasing
// (t, seq) order, so every seeded experiment replays bit-identically.
//
// Invariants:
//
//   - base0 == base1 << l0Bits: the L0 lap is aligned to exactly one
//     L1 bucket, so a cascaded L1 bucket always lands fully inside
//     the fresh L0 lap.
//   - All runq events have t == now (push routes them there only on
//     equality, and now cannot advance past them while they pend),
//     in seq order. A re-queued event keeps its old seq, so requeue
//     never uses the runq: at t == now it goes to L0's bucket for
//     now's tick, where pop's tie-break finds it.
//   - Whenever base1 advances, overflow events that now fall inside
//     the L1 window are drained into the wheels immediately. Without
//     this, an overflow event could sort after a later-tick event
//     subsequently inserted into L1.
//
// Events are stored by value (40 bytes: time, sequence, the Action or
// woken proc, and a generation word); buckets, the ring, and the heap
// all retain capacity across laps, so the steady state allocates
// nothing per event.

const (
	l0Shift = 8 // L0 bucket width: 256 ns
	l0Bits  = 12
	l0Count = 1 << l0Bits // 4096 buckets -> one lap is ~1.05 ms
	l0Mask  = l0Count - 1

	l1Shift = l0Shift + l0Bits // L1 bucket width: ~1.05 ms
	l1Bits  = 12
	l1Count = 1 << l1Bits // 4096 buckets -> horizon ~4.3 s
	l1Mask  = l1Count - 1
)

func evless(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// evring is a growable FIFO ring of events (power-of-two capacity).
type evring struct {
	ev   []event
	head int
	n    int
}

func (r *evring) push(ev event) {
	if r.n == len(r.ev) {
		r.grow()
	}
	r.ev[(r.head+r.n)&(len(r.ev)-1)] = ev
	r.n++
}

func (r *evring) grow() {
	nc := 16
	if len(r.ev) > 0 {
		nc = len(r.ev) * 2
	}
	ne := make([]event, nc)
	for i := 0; i < r.n; i++ {
		ne[i] = r.ev[(r.head+i)&(len(r.ev)-1)]
	}
	r.ev = ne
	r.head = 0
}

func (r *evring) peek() *event { return &r.ev[r.head] }

func (r *evring) pop() event {
	ev := r.ev[r.head]
	r.ev[r.head] = event{}
	r.head = (r.head + 1) & (len(r.ev) - 1)
	r.n--
	return ev
}

// bucket holds one wheel slot's events. head indexes the first
// unconsumed event; the prefix is cleared lazily so capacity is reused.
type bucket struct {
	ev   []event
	head int
}

// wheel is one tier of the calendar: fixed bucket count with a
// two-level occupancy bitmap (64 words + a summary word) so the next
// occupied bucket is found with three bit scans, never a linear walk.
type wheel struct {
	buckets [l0Count]bucket
	occ     [l0Count / 64]uint64
	summary uint64
	size    int
}

func (w *wheel) mark(idx int) {
	wi := idx >> 6
	w.occ[wi] |= 1 << (idx & 63)
	w.summary |= 1 << wi
}

func (w *wheel) clearBit(idx int) {
	wi := idx >> 6
	w.occ[wi] &^= 1 << (idx & 63)
	if w.occ[wi] == 0 {
		w.summary &^= 1 << wi
	}
}

func (w *wheel) occupied(idx int) bool {
	return w.occ[idx>>6]&(1<<(idx&63)) != 0
}

// next returns the first occupied bucket at or after from, in circular
// order. Occupied buckets all lie within the current lap, and bucket
// indexes that wrap around correspond to absolute ticks the clock has
// already passed (guaranteed empty), so the circular scan yields
// buckets in absolute-tick order. Returns -1 when the wheel is empty.
func (w *wheel) next(from int) int {
	wi := from >> 6
	if word := w.occ[wi] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word)
	}
	if sum := w.summary >> uint(wi+1); sum != 0 {
		wj := wi + 1 + bits.TrailingZeros64(sum)
		return wj<<6 + bits.TrailingZeros64(w.occ[wj])
	}
	if w.summary != 0 {
		wj := bits.TrailingZeros64(w.summary)
		return wj<<6 + bits.TrailingZeros64(w.occ[wj])
	}
	return -1
}

// insertSorted places ev into bucket idx keeping (t, seq) order,
// shifting up the events after it from the tail down (see the file
// header for how far that usually is).
func (w *wheel) insertSorted(idx int, ev event) {
	b := &w.buckets[idx]
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		w.mark(idx)
	}
	w.size++
	n := len(b.ev)
	if n == b.head || !evless(&ev, &b.ev[n-1]) {
		b.ev = append(b.ev, ev)
		return
	}
	b.ev = append(b.ev, b.ev[n-1])
	i := n - 1
	for i > b.head && evless(&ev, &b.ev[i-1]) {
		b.ev[i] = b.ev[i-1]
		i--
	}
	b.ev[i] = ev
}

// put appends ev to bucket idx without ordering (L1 buckets sort only
// when they cascade into L0).
func (w *wheel) put(idx int, ev event) {
	b := &w.buckets[idx]
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		w.mark(idx)
	}
	b.ev = append(b.ev, ev)
	w.size++
}

func (w *wheel) popFront(idx int) event {
	b := &w.buckets[idx]
	ev := b.ev[b.head]
	b.ev[b.head] = event{}
	b.head++
	w.size--
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		w.clearBit(idx)
	}
	return ev
}

// take empties bucket idx, appending its pending events to into.
func (w *wheel) take(idx int, into []event) []event {
	b := &w.buckets[idx]
	into = append(into, b.ev[b.head:]...)
	w.size -= len(b.ev) - b.head
	for i := range b.ev {
		b.ev[i] = event{}
	}
	b.ev = b.ev[:0]
	b.head = 0
	w.clearBit(idx)
	return into
}

// calq is the full calendar queue.
type calq struct {
	runq     evring
	l0, l1   wheel
	base0    int64   // absolute L0 tick of the current L0 lap start
	base1    int64   // absolute L1 tick of the current L1 window start
	overflow []event // min-heap on (t, seq)
	cascade  []event // scratch buffer reused across cascades
	size     int
}

func (q *calq) len() int { return q.size }

// push enqueues ev. wakeAt/At clamp timestamps to now, so ev.t >= now;
// events at exactly now short-circuit into the run queue.
func (q *calq) push(now Time, ev event) {
	q.size++
	if ev.t == now {
		q.runq.push(ev)
		return
	}
	q.place(ev)
}

// requeue enqueues ev again under its own (t, seq), which may sort
// before events already queued at its instant: it never joins the run
// queue, whose FIFO order is seq order only for fresh pushes. ev.t must
// be at or after the last popped event's.
func (q *calq) requeue(ev event) {
	q.size++
	q.place(ev)
}

// place routes an event at or after the L0 lap's start into L0, L1, or
// the overflow heap.
func (q *calq) place(ev event) {
	t0 := int64(ev.t) >> l0Shift
	if t0 < q.base0+l0Count {
		q.l0.insertSorted(int(t0&l0Mask), ev)
		return
	}
	if t1 := t0 >> l0Bits; t1 < q.base1+l1Count {
		q.l1.put(int(t1&l1Mask), ev)
		return
	}
	q.heapPush(ev)
}

// pop removes and returns the globally earliest event in (t, seq)
// order, or ok=false when the queue is empty.
func (q *calq) pop(now Time) (event, bool) {
	if q.runq.n > 0 {
		// Same-instant ordering: the only wheel events that can tie
		// the run queue's t == now are in L0's bucket for now's tick.
		// Deliver whichever has the lower seq.
		idx := int((int64(now) >> l0Shift) & l0Mask)
		if q.l0.occupied(idx) {
			b := &q.l0.buckets[idx]
			if h := &b.ev[b.head]; h.t == now && h.seq < q.runq.peek().seq {
				q.size--
				return q.l0.popFront(idx), true
			}
		}
		q.size--
		return q.runq.pop(), true
	}
	for {
		if q.l0.size > 0 {
			start := int64(now) >> l0Shift
			if start < q.base0 {
				start = q.base0
			}
			idx := q.l0.next(int(start & l0Mask))
			q.size--
			return q.l0.popFront(idx), true
		}
		if q.l1.size > 0 {
			idx := q.l1.next(int(q.base1 & l1Mask))
			d := (int64(idx) - q.base1) & l1Mask
			if d == 0 {
				// Ticks equal to base1 route to L0 and ticks equal to
				// base1+l1Count route to overflow, so the bucket at
				// base1's own index must be empty.
				panic("simtime: calendar queue corrupted")
			}
			abs := q.base1 + d
			q.cascade = q.l1.take(idx, q.cascade[:0])
			q.base1 = abs
			q.base0 = abs << l0Bits
			q.drainOverflow()
			for i := range q.cascade {
				ev := q.cascade[i]
				q.l0.insertSorted(int((int64(ev.t)>>l0Shift)&l0Mask), ev)
				q.cascade[i] = event{}
			}
			continue
		}
		if len(q.overflow) > 0 {
			q.base1 = int64(q.overflow[0].t) >> l1Shift
			q.base0 = q.base1 << l0Bits
			q.drainOverflow()
			continue
		}
		return event{}, false
	}
}

// drainOverflow moves every overflow event that now falls inside the
// L1 window into the wheels. Called on every base1 advance (see the
// ordering invariant above).
func (q *calq) drainOverflow() {
	for len(q.overflow) > 0 {
		if int64(q.overflow[0].t)>>l1Shift >= q.base1+l1Count {
			return
		}
		q.place(q.heapPop())
	}
}

func (q *calq) heapPush(ev event) {
	q.overflow = append(q.overflow, ev)
	i := len(q.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evless(&q.overflow[i], &q.overflow[parent]) {
			break
		}
		q.overflow[i], q.overflow[parent] = q.overflow[parent], q.overflow[i]
		i = parent
	}
}

func (q *calq) heapPop() event {
	h := q.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	q.overflow = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evless(&h[r], &h[l]) {
			m = r
		}
		if !evless(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
