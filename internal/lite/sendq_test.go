package lite

import (
	"fmt"
	"slices"
	"testing"

	"lite/internal/allocbudget"
)

// queued, used and batchIDs read a send queue's ledger for the
// whole-stack tests.

func (q *sendQueue[C]) queued() int { return len(q.outbox) }

// used returns the slots taken, and how many of them lazy signaling
// accounts for (pending or filed under an in-flight batch).
func (q *sendQueue[C]) used() (taken, lazy int) {
	lazy = q.pending
	for _, b := range q.inflight {
		lazy += b.slots
	}
	return qpDepth - q.free, lazy
}

func (q *sendQueue[C]) batchIDs() []uint64 {
	ids := make([]uint64, len(q.inflight))
	for k, b := range q.inflight {
		ids[k] = b.wrid
	}
	return ids
}

// TestSendQueueModel drives sendQueue, at the production qpDepth and
// signalEvery, through every interleaving of the QP's users, by
// breadth-first search over hashed states (explore). Posters arrive at
// any step with two-sided chains of 1–3 WRs (each reaps, serves the
// outbox, then posts or queues, as postShared does); one-sided
// callers post chains of 1–3 WRs (postOneSided) and, once
// their completion arrives, return the slots and serve the outbox
// (awaitOneSided); the drainer runs as startDrainer's proc does; the
// NIC completes signaled WRs in any order; the peer may die, failing
// the outbox. Every reachable state must keep the ledger (every slot
// free, pending, in an in-flight batch or held, exactly once, and held
// by the one-sided chains posted), reap must free every batch whose
// completion it was given, and no chain may wait in the outbox with a
// slot free, or with no drainer and no one-sided caller to serve it.
//
// The callers and the batches in flight are bounded together, so that
// the slots they can take still fill the queue: two callers with two
// batches, one with three, or none with four.
func TestSendQueueModel(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	states := 0
	for _, b := range []sqBounds{{callers: 2, batches: 2}, {callers: 1, batches: 3}, {callers: 0, batches: 4}} {
		n, err := explore(sqState{q: newSendQueue[int](), b: b}, sqVerbs, (*sqState).key, (*sqState).check, (*sqState).expand)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		states += n
	}
	t.Logf("%d states", states)
}

// sqBounds bounds the model: one-sided callers, and signaled batches in
// flight. At most sqOutbox chains are queued.
type sqBounds struct{ callers, batches int }

const sqOutbox = 3

// A chain in the model's outbox is -n for a two-sided chain of n WRs,
// or c+1 for one-sided caller c's WR.

const (
	callerIdle      = iota
	callerQueued    // its WR waits in the outbox
	callerPosted    // its chain holds slots, its completion is on the NIC
	callerCompleted // its completion arrived
)

type sqCaller struct {
	state uint8
	slots int
	wrid  uint64
}

const (
	drainerNone    = iota
	drainerRunning // at the top of its loop
	drainerWaiting // parked on the completion of inflight[0]
	drainerWoken   // that completion arrived
)

type sqState struct {
	b       sqBounds
	q       sendQueue[int]
	nextID  uint64
	stash   []uint64 // batch completions arrived that nobody claimed
	callers [2]sqCaller
	drainer uint8
	dead    bool
	err     error // a law a step broke inside reap
	over    bool  // a step went past the model's bounds
}

func (st *sqState) clone() *sqState {
	n := *st
	n.q.inflight = slices.Clone(st.q.inflight)
	n.q.outbox = slices.Clone(st.q.outbox)
	n.stash = slices.Clone(st.stash)
	return &n
}

func (st *sqState) mint() uint64 {
	st.nextID++
	return st.nextID
}

// reap reaps with the stashed completions (TryClaim) and claimed, and
// checks that it freed every batch they name.
func (st *sqState) reap(claimed uint64) {
	done := func(wrid uint64) bool {
		if k := slices.Index(st.stash, wrid); k >= 0 {
			st.stash = slices.Delete(st.stash, k, k+1)
			return true
		}
		return wrid == claimed
	}
	st.q.reap(done)
	for _, b := range st.q.inflight {
		if b.wrid == claimed || slices.Contains(st.stash, b.wrid) {
			st.err = fmt.Errorf("reap: batch %d completed but not freed", b.wrid)
		}
	}
}

// post posts chain c, as post does.
func (st *sqState) post(c int) {
	if c < 0 {
		st.q.twoSided(-c, st.mint)
		if len(st.q.inflight) > st.b.batches {
			st.over = true
		}
		return
	}
	st.q.take(1)
	st.callers[c-1] = sqCaller{state: callerPosted, slots: 1, wrid: st.mint()}
}

// serve serves the outbox, as serveOutbox does.
func (st *sqState) serve() {
	for c, ok := st.q.next(); ok; c, ok = st.q.next() {
		st.post(c)
	}
	if st.q.startDrainer() {
		st.spawn()
	}
}

func (st *sqState) spawn() {
	if st.drainer != drainerNone {
		st.err = fmt.Errorf("a second drainer started")
	}
	st.drainer = drainerRunning
}

// enqueue queues c, as enqueue does; false if the outbox is past the
// model's bound.
func (st *sqState) enqueue(c int) bool {
	if st.dead {
		if c > 0 {
			st.callers[c-1] = sqCaller{} // its caller gets statusDropped
		}
		return true
	}
	if st.q.queue(c) {
		st.spawn()
	}
	if c > 0 {
		st.callers[c-1] = sqCaller{state: callerQueued}
	}
	return len(st.q.outbox) <= sqOutbox
}

var sqVerbs = []string{"post two-sided WRs", "caller posts one-sided WRs", "caller returns", "NIC completes batch", "NIC completes caller", "drainer runs", "drainer reaps", "peer dies"}

func (st *sqState) expand(emit func(modelStep, *sqState, bool, error) error) error {
	try := func(how modelStep, next *sqState, ok bool) error { return emit(how, next, ok && !next.over, next.err) }
	for n := 1; n <= 3; n++ {
		next := st.clone()
		next.reap(0)
		next.serve()
		ok := true
		if next.q.room(1) > 0 {
			next.post(-n)
		} else {
			ok = next.enqueue(-n)
		}
		if err := try(modelStep{verb: 0, a: int16(n)}, next, ok); err != nil {
			return err
		}
	}
	for c, cl := range st.callers[:st.b.callers] {
		switch cl.state {
		case callerIdle:
			for n := 1; n <= 3; n++ {
				next := st.clone()
				next.reap(0)
				next.serve()
				ok := true
				if k := next.q.room(n); k == 0 {
					ok = next.enqueue(c + 1)
				} else {
					next.q.take(k)
					next.callers[c] = sqCaller{state: callerPosted, slots: k, wrid: next.mint()}
				}
				if err := try(modelStep{verb: 1, a: int16(c), b: int16(n)}, next, ok); err != nil {
					return err
				}
			}
		case callerCompleted:
			next := st.clone()
			next.q.give(cl.slots)
			next.callers[c] = sqCaller{}
			next.serve()
			if err := try(modelStep{verb: 2, a: int16(c)}, next, true); err != nil {
				return err
			}
		case callerPosted:
			next := st.clone()
			next.callers[c].state = callerCompleted
			if err := try(modelStep{verb: 4, a: int16(c)}, next, true); err != nil {
				return err
			}
		}
	}
	for k, b := range st.q.inflight {
		if slices.Contains(st.stash, b.wrid) || k == 0 && st.drainer >= drainerWaiting {
			continue // completed already, or the drainer's
		}
		next := st.clone()
		next.stash = append(next.stash, b.wrid)
		if err := try(modelStep{verb: 3, a: int16(k)}, next, true); err != nil {
			return err
		}
	}
	if st.drainer == drainerWaiting {
		// The drainer is registered for inflight[0]: its completion goes
		// to the drainer, not the stash.
		next := st.clone()
		next.drainer = drainerWoken
		if err := try(modelStep{verb: 3, a: 0}, next, true); err != nil {
			return err
		}
	}
	switch st.drainer {
	case drainerRunning:
		next := st.clone()
		next.drainer = drainerNone
		if wrid, ok := next.q.drainFor(); ok {
			next.drainer = drainerWaiting
			if k := slices.Index(next.stash, wrid); k >= 0 {
				next.stash = slices.Delete(next.stash, k, k+1)
				next.drainer = drainerWoken
			}
		}
		if err := try(modelStep{verb: 5}, next, true); err != nil {
			return err
		}
	case drainerWoken:
		next := st.clone()
		next.reap(next.q.inflight[0].wrid)
		next.drainer = drainerRunning
		next.serve()
		if err := try(modelStep{verb: 6}, next, true); err != nil {
			return err
		}
	}
	if !st.dead {
		next := st.clone()
		next.dead = true
		for _, c := range next.q.failAll() {
			if c > 0 {
				next.callers[c-1] = sqCaller{}
			}
		}
		return try(modelStep{verb: 7}, next, true)
	}
	return nil
}

// check returns the first law st breaks.
func (st *sqState) check() error {
	q := &st.q
	held, slots := 0, q.free+q.pending+q.held
	for _, c := range st.callers {
		if c.state == callerPosted || c.state == callerCompleted {
			held += c.slots
		}
	}
	for _, b := range q.inflight {
		slots += b.slots
	}
	switch {
	case slots != qpDepth || q.held != held:
		return fmt.Errorf("ledger: %d free + %d pending + %v in flight + %d held != %d, or callers hold %d", q.free, q.pending, q.inflight, q.held, qpDepth, held)
	case len(q.outbox) > 0 && q.free > 0:
		return fmt.Errorf("stranded: %d chains queued with %d slots free", len(q.outbox), q.free)
	case len(q.outbox) > 0 && !q.draining && q.held == 0:
		return fmt.Errorf("stranded: %d chains queued, no drainer and no one-sided caller to serve them", len(q.outbox))
	case q.draining != (st.drainer != drainerNone):
		return fmt.Errorf("draining is %v with the drainer in state %d", q.draining, st.drainer)
	case st.drainer >= drainerWaiting && len(q.inflight) == 0:
		return fmt.Errorf("the drainer waits on a batch no longer in flight")
	}
	return nil
}

// key hashes st with every WRID replaced by where it is: a batch by its
// place in flight and whether its completion is stashed, a caller's by
// the caller.
func (st *sqState) key() uint64 {
	q := &st.q
	h := stateHash(14695981039346656037)
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	h.add(int64(q.free), int64(q.held), int64(q.pending), int64(q.count), flag(q.draining), int64(st.drainer), flag(st.dead), int64(len(q.inflight)), int64(len(q.outbox)))
	for _, b := range q.inflight {
		h.add(int64(b.slots)<<1 | flag(slices.Contains(st.stash, b.wrid)))
	}
	for _, c := range q.outbox {
		h.add(int64(c))
	}
	for _, c := range st.callers {
		h.add(int64(c.state)<<8 | int64(c.slots))
	}
	return uint64(h)
}
