package lite

import "fmt"

// qpDepth bounds outstanding operations per shared QP; it is what
// makes HW-Sep QP reservation an actual resource partition.
const qpDepth = 16

// signalEvery is the selective-signaling period: one signaled send per
// this many posts on a shared QP (its completion lazily reclaims the
// accumulated send-queue slots; the posts in between produce no CQE).
// It must stay below qpDepth: the unsignaled posts since the last
// signaled one then never fill a queue on their own, so a full queue
// always has a completion coming that frees slots for its outbox.
const signalEvery = 4

// The array length is negative, and the build fails, unless
// signalEvery < qpDepth.
var _ [qpDepth - 1 - signalEvery]struct{}

// sendQueue is the slot ledger of one shared QP's send queue, which
// every process on the node posts through (§6.1). Each of its qpDepth
// slots is free, pending (taken by a two-sided post since the last
// signaled one), filed under an in-flight signaled batch until that
// batch's completion is reaped, or held by a one-sided chain until its
// caller's completion arrives.
//
// No thread parks on a send queue. A chain (C) that finds no free slot,
// or a non-empty outbox, is queued and its caller returns. Whoever
// frees slots posts from the outbox head, in order: the next poster's
// lazy reap, a one-sided caller whose completion arrived, or the QP's
// one-shot drainer, which waits on the oldest in-flight batch. The type
// is the only writer of this state and does no I/O;
// TestSendQueueModel checks every interleaving.
type sendQueue[C any] struct {
	free     int // slots nobody holds
	held     int // slots one-sided chains hold
	pending  int // slots taken by two-sided posts since the last signaled one
	count    int // WRs posted since the last signaled one
	inflight []reclaimBatch
	outbox   []C
	draining bool // a drainer is waiting on inflight[0] for the outbox
}

// reclaimBatch is one signaled WR's worth of deferred slot releases,
// freed when that WR's completion is reaped.
type reclaimBatch struct {
	wrid  uint64
	slots int
}

func newSendQueue[C any]() sendQueue[C] { return sendQueue[C]{free: qpDepth} }

// twoSided takes one slot for a two-sided chain of n WRs. The post that
// brings the QP's WR count to signalEvery signals its last WR: twoSided
// then mints that WR's id with wrid, files the slots pending since the
// last signaled post under it (lazy WQE reclaim) and returns it; else
// it returns 0. The caller posts after this bookkeeping: concurrent
// posters would otherwise all read the old count, none signal, and
// fill the queue with WQEs no completion reclaims.
func (q *sendQueue[C]) twoSided(n int, wrid func() uint64) uint64 {
	q.free--
	q.pending++
	if q.count+n < signalEvery {
		q.count += n
		return 0
	}
	id := wrid()
	q.inflight = append(q.inflight, reclaimBatch{wrid: id, slots: q.pending})
	q.count, q.pending = 0, 0
	return id
}

// room returns how many WRs of a chain of n may post now, a slot each:
// none while chains wait in the outbox, which go first.
func (q *sendQueue[C]) room(n int) int {
	if len(q.outbox) > 0 {
		return 0
	}
	return min(n, q.free)
}

// take holds n free slots for a one-sided chain; give returns them.
func (q *sendQueue[C]) take(n int) { q.free, q.held = q.free-n, q.held+n }
func (q *sendQueue[C]) give(n int) { q.free, q.held = q.free+n, q.held-n }

// reap frees the slots of every in-flight batch whose completion done
// reports, in any order: a WR lost toward a lossy peer completes only
// at its RC timeout, and the batches completed behind it must not wait.
func (q *sendQueue[C]) reap(done func(wrid uint64) bool) {
	kept := q.inflight[:0]
	for _, b := range q.inflight {
		if done(b.wrid) {
			q.free += b.slots
		} else {
			kept = append(kept, b)
		}
	}
	q.inflight = kept
}

// queue appends c to the outbox. It reports whether the caller must
// start the QP's drainer (see drainFor).
func (q *sendQueue[C]) queue(c C) (startDrainer bool) {
	q.outbox = append(q.outbox, c)
	return q.startDrainer()
}

// next pops the outbox head if a slot is free for it.
func (q *sendQueue[C]) next() (c C, ok bool) {
	if len(q.outbox) == 0 || q.free == 0 {
		return c, false
	}
	c = q.outbox[0]
	clear(q.outbox[:1])
	q.outbox = q.outbox[1:]
	return c, true
}

// startDrainer reports whether a drainer must start: chains wait in the
// outbox, a batch is in flight and no drainer runs. It marks one as
// running.
func (q *sendQueue[C]) startDrainer() bool {
	if q.draining || len(q.outbox) == 0 || len(q.inflight) == 0 {
		return false
	}
	q.draining = true
	return true
}

// drainFor returns the batch the drainer waits on next, before it reaps
// and serves the outbox: the oldest in flight, while chains wait. Once
// the outbox is empty or no batch is left (one-sided callers hold the
// slots then, and serve the outbox themselves) it stops the drainer.
func (q *sendQueue[C]) drainFor() (wrid uint64, ok bool) {
	if len(q.outbox) == 0 || len(q.inflight) == 0 {
		q.draining = false
		return 0, false
	}
	return q.inflight[0].wrid, true
}

// failAll empties the outbox and returns what it held.
func (q *sendQueue[C]) failAll() []C {
	out := q.outbox
	q.outbox = nil
	return out
}

// reset frees the pending and in-flight slots at a crash: nothing of
// the dead incarnation will post again to reap their completions.
// One-sided callers return theirs as their completions arrive.
func (q *sendQueue[C]) reset() {
	q.free += q.pending
	for _, b := range q.inflight {
		q.free += b.slots
	}
	q.pending, q.count, q.inflight = 0, 0, nil
}

// settled reports a queue that is not at rest: a slot is not free,
// pending, in an in-flight batch or held exactly once, a one-sided
// chain holds slots, or chains are queued.
func (q *sendQueue[C]) settled() error {
	n := q.free + q.pending + q.held
	for _, b := range q.inflight {
		n += b.slots
	}
	if n != qpDepth || q.held != 0 || len(q.outbox) != 0 {
		return fmt.Errorf("%d free, %d pending, %v in flight, %d held, %d chains queued",
			q.free, q.pending, q.inflight, q.held, len(q.outbox))
	}
	return nil
}
