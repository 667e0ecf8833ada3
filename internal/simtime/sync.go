package simtime

// waiter records a parked process together with the wait generation it
// parked under, so stale entries (already woken by another source, for
// example a timeout) can be skipped.
type waiter struct {
	p   *Proc
	gen uint64
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff.
// The zero value is an unlocked mutex.
type Mutex struct {
	owner *Proc
	q     []waiter
}

// Lock acquires the mutex, blocking the process in FIFO order if it is
// held. Lock panics on self-deadlock (re-acquiring a held mutex).
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic("simtime: recursive Mutex.Lock by " + p.name)
	}
	gen := p.prepareWait()
	m.q = append(m.q, waiter{p, gen})
	p.park()
	// Ownership was handed to us by Unlock before the wake event fired.
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner == nil {
		m.owner = p
		return true
	}
	return false
}

// Unlock releases the mutex and hands it to the oldest waiter, if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("simtime: Mutex.Unlock by non-owner " + p.name)
	}
	m.owner = nil
	for len(m.q) > 0 {
		w := m.q[0]
		m.q = m.q[1:]
		if w.gen != w.p.gen || w.p.done {
			continue
		}
		m.owner = w.p
		p.env.wakeAt(p.env.now, w.p, w.gen, WakeSignal)
		return
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Cond is a virtual-time condition variable. Unlike sync.Cond it does
// not require an associated mutex: because only one process runs at a
// time, checking the predicate and calling Wait is already atomic.
type Cond struct {
	q []waiter
}

// Wait parks the process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	gen := p.prepareWait()
	c.q = append(c.q, waiter{p, gen})
	p.park()
}

// WaitTimeout parks the process until it is signaled or d elapses. It
// reports whether the wake came from a signal (true) rather than the
// timeout (false). A timed-out waiter takes its record with it, so the
// queue never holds more records than parked waiters, whichever end
// signals pop from.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	gen := p.prepareWait()
	me := waiter{p, gen}
	c.q = append(c.q, me)
	p.env.wakeAt(p.env.now+d, p, gen, WakeTimer)
	if p.park() == WakeSignal {
		return true
	}
	for k, w := range c.q {
		if w == me {
			n := copy(c.q[k:], c.q[k+1:])
			c.q[k+n] = waiter{}
			c.q = c.q[:k+n]
			break
		}
	}
	return false
}

// Signal wakes the oldest valid waiter, if any, and reports whether a
// process was woken. It may be called from any running process or
// from a scheduler callback (Env.At).
func (c *Cond) Signal(e *Env) bool {
	for len(c.q) > 0 {
		w := c.q[0]
		c.q = c.q[1:]
		if w.gen != w.p.gen || w.p.done {
			continue
		}
		e.wakeAt(e.now, w.p, w.gen, WakeSignal)
		return true
	}
	return false
}

// SignalNewest is Signal in LIFO order: it wakes the most recently
// queued valid waiter, the one whose wait began last.
func (c *Cond) SignalNewest(e *Env) bool {
	for n := len(c.q); n > 0; n = len(c.q) {
		w := c.q[n-1]
		c.q[n-1] = waiter{}
		c.q = c.q[:n-1]
		if w.gen != w.p.gen || w.p.done {
			continue
		}
		e.wakeAt(e.now, w.p, w.gen, WakeSignal)
		return true
	}
	return false
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
// parked on c that no signal has yet claimed. It is intended for
// diagnostics.
func (c *Cond) Waiters() int { return len(c.q) }

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

// TryAcquire takes a permit without blocking and reports success.
func (s *Semaphore) TryAcquire(p *Proc) bool {
	if s.n == 0 {
		return false
	}
	s.n--
	return true
}

// Release returns one permit and wakes a waiter if any. It may be
// called from a process or a scheduler callback.
func (s *Semaphore) Release(e *Env) {
	s.n++
	s.cond.Signal(e)
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.n }

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
