package simtime

// waiter records a parked process together with the wait generation it
// parked under, so stale entries (already woken by another source, for
// example a timeout) can be skipped.
type waiter struct {
	p   *Proc
	gen uint64
}

// waitq is a FIFO of wait records. Popping advances head instead of
// re-slicing the front away, and push compacts in place when the tail
// is full, so a queue that keeps filling and draining reuses one
// backing array instead of reallocating on the first append after
// every pop.
type waitq struct {
	q    []waiter
	head int
}

func (w *waitq) len() int { return len(w.q) - w.head }

func (w *waitq) push(r waiter) {
	if w.head > 0 && len(w.q) == cap(w.q) {
		n := copy(w.q, w.q[w.head:])
		clear(w.q[n:])
		w.q = w.q[:n]
		w.head = 0
	}
	w.q = append(w.q, r)
}

// popValid removes records oldest first (newest first if newest) until
// one is still current, and returns it; ok is false once the queue is
// empty. Stale records, whose process was woken by another source or
// has finished, are dropped on the way.
func (w *waitq) popValid(newest bool) (r waiter, ok bool) {
	for w.len() > 0 {
		if newest {
			n := len(w.q) - 1
			r = w.q[n]
			w.q[n] = waiter{}
			w.q = w.q[:n]
		} else {
			r = w.q[w.head]
			w.q[w.head] = waiter{}
			w.head++
		}
		if w.head == len(w.q) {
			w.q = w.q[:0]
			w.head = 0
		}
		if r.gen == r.p.gen && !r.p.done {
			return r, true
		}
	}
	return waiter{}, false
}

// remove drops the record r, if still queued.
func (w *waitq) remove(r waiter) {
	for k := w.head; k < len(w.q); k++ {
		if w.q[k] == r {
			n := copy(w.q[k:], w.q[k+1:])
			w.q[k+n] = waiter{}
			w.q = w.q[:k+n]
			if w.head == len(w.q) {
				w.q = w.q[:0]
				w.head = 0
			}
			return
		}
	}
}

// Cond is a virtual-time condition variable. Unlike sync.Cond it does
// not require an associated mutex: because only one process runs at a
// time, checking the predicate and calling Wait is already atomic.
type Cond struct {
	q waitq
}

// Wait parks the process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	gen := p.prepareWait()
	c.q.push(waiter{p, gen})
	p.park()
}

// WaitTimeout parks the process until it is signaled or d elapses. It
// reports whether the wake came from a signal (true) rather than the
// timeout (false). A timed-out waiter takes its record with it, so the
// queue never holds more records than parked waiters, whichever end
// signals pop from.
//
// The deadline is recorded on the process, and a timeout event is
// queued only if the process has no earlier one queued; that event,
// popping while a later deadline is live, re-queues the deadline under
// its own (time, sequence). A wait that a signal ends early thus rarely
// leaves an event of its own behind, and the timeout fires exactly
// where an event queued at arm time would.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	gen := p.prepareWait()
	me := waiter{p, gen}
	c.q.push(me)
	p.env.timeoutAt(p.env.now+d, p)
	signaled := p.park() == WakeSignal
	p.dl = deadline{}
	if !signaled {
		c.q.remove(me)
	}
	return signaled
}

// Signal wakes the oldest valid waiter, if any, and reports whether a
// process was woken. It may be called from any running process or
// from a scheduler callback (Env.At).
func (c *Cond) Signal(e *Env) bool {
	return c.wake(e, false)
}

// SignalNewest is Signal in LIFO order: it wakes the most recently
// queued valid waiter, the one whose wait began last.
func (c *Cond) SignalNewest(e *Env) bool {
	return c.wake(e, true)
}

func (c *Cond) wake(e *Env, newest bool) bool {
	w, ok := c.q.popValid(newest)
	if ok {
		e.wakeAt(e.now, w.p, w.gen, WakeSignal)
	}
	return ok
}

// Broadcast wakes every valid waiter and returns how many were woken.
func (c *Cond) Broadcast(e *Env) int {
	n := 0
	for c.Signal(e) {
		n++
	}
	return n
}

// Waiters returns the number of queued wait records: the processes
// parked on c that no signal has yet claimed.
func (c *Cond) Waiters() int { return c.q.len() }

// Semaphore is a counting semaphore in virtual time with FIFO wakeup.
type Semaphore struct {
	n    int
	cond Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{n: n} }

// Acquire takes one permit, blocking until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// Release returns one permit and wakes a waiter if any. It may be
// called from a process or a scheduler callback.
func (s *Semaphore) Release(e *Env) {
	s.n++
	s.cond.Signal(e)
}

// WaitGroup waits for a collection of processes to finish, mirroring
// sync.WaitGroup in virtual time.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
}

// Done decrements the counter by one and wakes waiters at zero. It
// may be called from a process or a scheduler callback.
func (w *WaitGroup) Done(e *Env) {
	w.Add(-1)
	if w.n == 0 {
		w.cond.Broadcast(e)
	}
}

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.cond.Wait(p)
	}
}
