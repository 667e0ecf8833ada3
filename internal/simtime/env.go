// Package simtime implements a deterministic discrete-event simulation
// kernel with virtual time.
//
// A simulation is driven by an Env. Application code runs inside
// processes (Proc), each backed by a goroutine. The scheduler enforces
// that exactly one process executes at any instant, which makes the
// simulation deterministic and lets process code mutate shared state
// without additional locking: every handoff between processes goes
// through a channel, establishing the necessary happens-before edges.
//
// Virtual time only advances when every process is blocked; it then
// jumps to the earliest pending event. Processes block by sleeping
// (Sleep, SleepUntil), by waiting on virtual synchronization primitives
// (Mutex, Cond, Semaphore, Chan), or by queueing on a Server resource.
//
// Processes marked as daemons (GoDaemon) do not keep the simulation
// alive: Run returns once every non-daemon process has finished, which
// is how long-lived background pollers are modeled.
//
// # Scheduling
//
// Events live in a calendar queue (see calq.go) and are dispatched in
// strictly nondecreasing (time, sequence) order; two events at the same
// instant run in the order they were scheduled. That total order is the
// determinism contract: it is independent of host speed, GOMAXPROCS,
// and scheduler implementation, so a seeded run replays bit-identically
// anywhere.
//
// The event loop itself is continuation-stealing: there is no dedicated
// scheduler goroutine. Whichever process parks runs the dispatch loop
// inline (sched). If the next event wakes the parking process itself —
// the overwhelmingly common case for timer-driven code such as NIC
// pipeline stages and poller ticks — park returns without touching a
// channel at all. Waking a different process costs exactly one channel
// send (the resume handoff).
package simtime

import (
	"fmt"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp, measured as a duration since
// the simulation epoch (time zero, when Run starts).
type Time = time.Duration

// WakeReason reports why a parked process resumed.
type WakeReason int

const (
	// WakeTimer indicates the process resumed because a timer it armed
	// (Sleep or a wait timeout) expired.
	WakeTimer WakeReason = iota
	// WakeSignal indicates the process resumed because another process
	// signaled it (cond signal, mutex handoff, channel operation, ...).
	WakeSignal
)

// Env is a discrete-event simulation environment. Create one with
// NewEnv, spawn processes with Go/GoDaemon, then call Run.
type Env struct {
	now     Time
	seq     int64
	q       calq
	nextPID int
	events  int64

	// doneCh carries Run's result from whichever goroutine ends the
	// run (buffered so the ender never blocks).
	doneCh chan error

	live  int // non-daemon procs that have not finished
	procs map[int]*Proc
	limit Time // 0 means no limit
}

// event is a pending wakeup or callback. Events are stored by value
// inside the calendar queue's buckets, so scheduling allocates nothing
// in steady state.
type event struct {
	t      Time
	seq    int64
	p      *Proc
	gen    uint64
	reason WakeReason
	fn     func(*Env) // callback event: runs in scheduler context
}

// NewEnv returns an empty simulation environment at virtual time zero.
func NewEnv() *Env {
	return &Env{
		procs:  make(map[int]*Proc),
		doneCh: make(chan error, 1),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of events dispatched so far: process
// wakeups delivered plus callbacks run. Stale (superseded) wakeups are
// not counted. For a given workload the count is deterministic, which
// makes it the denominator for the events-per-second figure the `scale`
// benchmark reports.
func (e *Env) Events() int64 { return e.events }

// SetLimit makes Run stop once virtual time reaches t, even if
// non-daemon processes are still live. A zero limit means no limit.
func (e *Env) SetLimit(t Time) { e.limit = t }

// Proc is a simulated process (thread of execution) inside an Env.
type Proc struct {
	env    *Env
	id     int
	name   string
	resume chan WakeReason
	gen    uint64
	parked bool
	done   bool
	daemon bool

	cpu *CPUAccount

	// trace is an opaque slot for observability context (the active
	// trace span) carried by this process across blocking points.
	// simtime never interprets it; keeping it per-process rather than
	// in a shared registry means two processes interleaving at a
	// blocking point cannot clobber each other's context.
	trace any
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// SetTrace installs opaque observability context on the process; it
// travels with the process across blocking points. Pass nil to clear.
func (p *Proc) SetTrace(v any) { p.trace = v }

// Trace returns the context installed by SetTrace, or nil.
func (p *Proc) Trace() any { return p.trace }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process that starts at the current virtual time.
// The simulation (Run) will not finish until fn returns.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a background process that does not keep the
// simulation alive: Run returns once all non-daemon processes finish,
// abandoning any daemons still blocked or sleeping.
func (e *Env) GoDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	e.nextPID++
	p := &Proc{
		env:    e,
		id:     e.nextPID,
		name:   name,
		resume: make(chan WakeReason),
		gen:    1,
		parked: true,
		daemon: daemon,
	}
	e.procs[p.id] = p
	if !daemon {
		e.live++
	}
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		p.parked = false
		// The finished process is the active goroutine: retire it and
		// keep driving the event loop until the next handoff.
		delete(e.procs, p.id)
		if !p.daemon {
			e.live--
		}
		e.sched(nil)
	}()
	e.wakeAt(e.now, p, p.gen, WakeSignal)
	return p
}

// wakeAt schedules a wakeup for p at time t, provided p is still in
// generation gen when the event fires. Stale events are skipped.
func (e *Env) wakeAt(t Time, p *Proc, gen uint64, reason WakeReason) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(e.now, event{t: t, seq: e.seq, p: p, gen: gen, reason: reason})
}

// At schedules fn to run at virtual time t (or now, if t is in the
// past). The callback executes in scheduler context while every
// process is parked: it may mutate shared state and wake processes
// (for example via Cond.Signal), but it must not block. Callbacks are
// used to model asynchronous hardware activity such as NIC delivery.
func (e *Env) At(t Time, fn func(*Env)) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(e.now, event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now; see At.
func (e *Env) After(d Time, fn func(*Env)) { e.At(e.now+d, fn) }

// prepareWait opens a new wait generation for p and returns it. Any
// wake source armed for this wait must capture the returned generation.
func (p *Proc) prepareWait() uint64 {
	p.gen++
	return p.gen
}

// park blocks the calling process until a wake event for its current
// generation fires, and returns the reason for the wakeup.
//
// The parking process first runs the dispatch loop itself: if the next
// event is its own wakeup it simply keeps running (zero channel
// operations); otherwise it hands the scheduler role over with one
// resume send and blocks on its own resume channel.
func (p *Proc) park() WakeReason {
	e := p.env
	p.parked = true
	if r, ok := e.sched(p); ok {
		return r
	}
	return <-p.resume
}

// sched drains the event queue on the calling goroutine. self is the
// process that just parked (nil when called from Run or a finished
// process's epilogue). It returns (reason, true) when the next wakeup
// is for self. Otherwise it ends by either handing the scheduler role
// to the woken process (one resume send) or completing the run
// (doneCh), and returns ok=false.
func (e *Env) sched(self *Proc) (WakeReason, bool) {
	for {
		if e.live == 0 {
			e.doneCh <- nil
			return 0, false
		}
		ev, ok := e.q.pop(e.now)
		if !ok {
			e.doneCh <- e.deadlock()
			return 0, false
		}
		if ev.fn != nil {
			if e.limit > 0 && ev.t > e.limit {
				e.doneCh <- nil
				return 0, false
			}
			if ev.t > e.now {
				e.now = ev.t
			}
			e.events++
			ev.fn(e)
			continue
		}
		p := ev.p
		if ev.gen != p.gen || !p.parked || p.done {
			// Stale wakeup, superseded by a later prepareWait: skipped
			// without advancing the clock.
			continue
		}
		if e.limit > 0 && ev.t > e.limit {
			e.doneCh <- nil
			return 0, false
		}
		if ev.t > e.now {
			e.now = ev.t
		}
		e.events++
		p.parked = false
		if p == self {
			return ev.reason, true
		}
		p.resume <- ev.reason
		return 0, false
	}
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.env.now + d)
}

// SleepUntil suspends the process until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	gen := p.prepareWait()
	p.env.wakeAt(t, p, gen, WakeTimer)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// process with a pending event at this instant run first.
func (p *Proc) Yield() {
	gen := p.prepareWait()
	p.env.wakeAt(p.env.now, p, gen, WakeTimer)
	p.park()
}

// DeadlockError reports that the simulation stalled: live non-daemon
// processes remain but no event can wake any process.
type DeadlockError struct {
	// Parked lists the names of processes that were still blocked.
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simtime: deadlock with %d parked process(es): %v", len(e.Parked), e.Parked)
}

// Run executes the simulation until all non-daemon processes finish,
// the time limit (if set) is reached, or no progress is possible. It
// returns a *DeadlockError in the latter case and nil otherwise.
func (e *Env) Run() error {
	e.sched(nil)
	return <-e.doneCh
}

func (e *Env) deadlock() error {
	var parked []string
	for _, p := range e.procs {
		if p.parked && !p.done && !p.daemon {
			parked = append(parked, p.name)
		}
	}
	sort.Strings(parked)
	return &DeadlockError{Parked: parked}
}

// CPUAccount accumulates the busy CPU time charged by one or more
// processes. It is used to reproduce the paper's CPU-utilization
// comparisons: real work and busy-polling are charged, blocking sleep
// is not.
type CPUAccount struct {
	busy Time
}

// Busy returns the accumulated busy CPU time.
func (a *CPUAccount) Busy() Time {
	if a == nil {
		return 0
	}
	return a.busy
}

// Charge adds d of busy time to the account.
func (a *CPUAccount) Charge(d Time) {
	if a != nil && d > 0 {
		a.busy += d
	}
}

// SetCPUAccount attaches an account to the process; subsequent Work
// calls (and busy-waits that the caller charges) accrue to it.
func (p *Proc) SetCPUAccount(a *CPUAccount) { p.cpu = a }

// CPUAccount returns the account attached to the process, or nil.
func (p *Proc) CPUAccount() *CPUAccount { return p.cpu }

// Work advances virtual time by d and charges d of busy CPU time to
// the process's account. Use it for computation, memory copies, and
// any activity that occupies a core; use Sleep for idle waiting.
func (p *Proc) Work(d Time) {
	if d < 0 {
		d = 0
	}
	p.cpu.Charge(d)
	p.Sleep(d)
}
