package simtime

// This file implements the event queue: a FIFO run queue for events
// scheduled at exactly the current instant over one min-heap on
// (t, seq) for everything else.
//
//   - runq: signals, yields, spawns and zero-length sleeps land at
//     exactly now. Pushing and popping are O(1) with no ordering work
//     at all, because seq order and FIFO push order coincide.
//   - heap: every event in the future, and every re-queued timeout.
//
// Ordering contract: pop returns events in strictly nondecreasing
// (t, seq) order, so every seeded experiment replays bit-identically.
//
// Invariants: all runq events have t == now (push routes them there
// only on equality, and now cannot advance past them while they pend),
// in seq order. Every heap event has t >= now; one at now with a lower
// seq than the runq's head was pushed before the clock reached now, or
// re-queued under its old seq (so requeue never uses the runq), and
// pop's tie-break delivers it first.
//
// Events are stored by value (40 bytes: time, sequence, the Action or
// woken proc, and a generation word); the ring and the heap retain
// their capacity, which follows the most events ever pending at once,
// so the steady state allocates nothing per event.

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

// eventQueue is the scheduler's pending-event set.
type eventQueue struct {
	runq evring
	heap []event // min-heap on (t, seq)
}

// push enqueues ev. wakeAt/At clamp timestamps to now, so ev.t >= now;
// events at exactly now short-circuit into the run queue.
func (q *eventQueue) push(now Time, ev event) {
	if ev.t == now {
		q.runq.push(ev)
		return
	}
	q.heapPush(ev)
}

// requeue enqueues ev again under its own (t, seq), which may sort
// before events already queued at its instant: it never joins the run
// queue, whose FIFO order is seq order only for fresh pushes. ev.t must
// be at or after the last popped event's.
func (q *eventQueue) requeue(ev event) { q.heapPush(ev) }

// pop removes and returns the globally earliest event in (t, seq)
// order, or ok=false when the queue is empty.
func (q *eventQueue) pop(now Time) (event, bool) {
	if q.runq.n > 0 {
		// Same-instant ordering: a heap event at now goes first if it
		// has the lower seq.
		if len(q.heap) > 0 && q.heap[0].t == now && q.heap[0].seq < q.runq.peek().seq {
			return q.heapPop(), true
		}
		return q.runq.pop(), true
	}
	if len(q.heap) > 0 {
		return q.heapPop(), true
	}
	return event{}, false
}

func (q *eventQueue) heapPush(ev event) {
	q.heap = append(q.heap, ev)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evless(&q.heap[i], &q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *eventQueue) heapPop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	q.heap = h[:n]
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
