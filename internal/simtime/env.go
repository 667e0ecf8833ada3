// Package simtime implements a deterministic discrete-event simulation
// kernel with virtual time.
//
// A simulation is driven by an Env. Application code runs inside
// processes (Proc), each backed by a coroutine (iter.Pull). The
// scheduler enforces that exactly one process executes at any instant,
// which makes the simulation deterministic and lets process code mutate
// shared state without additional locking: every handoff between
// processes is a coroutine switch, which establishes the necessary
// happens-before edges.
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
// The event loop itself is continuation-stealing: whichever process
// parks runs the dispatch loop inline (sched). If the next event wakes
// the parking process itself — the common case for timer-driven code
// such as NIC pipeline stages and poller ticks — park returns with no
// switch at all. Waking a different process costs two coroutine
// switches and no trip through the Go scheduler: the parking coroutine
// yields the worker to resume to Run's goroutine, which resumes it.
//
// A panic inside a process surfaces from Run, in Run's goroutine.
package simtime

import (
	"fmt"
	"sort"
	"time"

	"lite/internal/obs"
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

	// err is the deadlock a run ended in, for Run to return.
	err error

	live  int // non-daemon procs that have not finished
	procs map[int]*Proc
	limit Time // 0 means no limit

	// idle holds the workers of finished procs, each suspended until
	// spawn hands it the next proc; Run stops them when it returns.
	idle []*worker
}

// worker is a coroutine that runs procs one after another. Reusing it
// keeps the stack an earlier proc grew, where a fresh one would start
// small and copy its stack as the proc's calls deepen.
type worker struct {
	p      *Proc
	fn     func(*Proc)
	reason WakeReason // why p was last woken

	// next resumes the coroutine from Run's goroutine and returns the
	// worker it yields: the one to resume next, or nil once the run is
	// over. yield is the coroutine's side of that handoff; stop ends an
	// idle coroutine.
	next  func() (*worker, bool)
	yield func(*worker) bool
	stop  func()
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
	return &Env{procs: make(map[int]*Proc)}
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
	w      *worker
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
	var w *worker
	if n := len(e.idle); n > 0 {
		w = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		w = e.newWorker()
	}
	e.nextPID++
	p := &Proc{
		env:    e,
		id:     e.nextPID,
		name:   name,
		w:      w,
		gen:    1,
		parked: true,
		daemon: daemon,
	}
	w.p, w.fn = p, fn
	e.procs[p.id] = p
	if !daemon {
		e.live++
	}
	e.wakeAt(e.now, p, p.gen, WakeSignal)
	return p
}

// work is the body of w's coroutine. Each proc it is handed starts at
// its first wakeup; once the proc returns, w joins the idle pool and,
// still running, drives the event loop until the next wakeup — which
// may be of a proc spawned onto w meanwhile, which it then runs with no
// switch. It returns when Run stops w.
func (e *Env) work(w *worker) {
	for {
		p := w.p
		w.fn(p)
		// A finished proc can stay reachable (a stale timer, a wait
		// record); it must not keep w, and so w's coroutine state, alive
		// once Run has stopped w.
		w.p, w.fn, p.w = nil, nil, nil
		p.done = true
		p.parked = false
		delete(e.procs, p.id)
		if !p.daemon {
			e.live--
		}
		e.idle = append(e.idle, w)
		if next := e.sched(); next != w && !w.yield(next) {
			return
		}
	}
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
// event is its own wakeup it simply keeps running (no switch);
// otherwise it yields the worker to resume (or nil, the run is over) to
// Run's goroutine and stays suspended until Run resumes it.
func (p *Proc) park() WakeReason {
	p.parked = true
	if next := p.env.sched(); next != p.w {
		p.w.yield(next)
	}
	return p.w.reason
}

// sched drains the event queue on the calling goroutine: a parking or
// finishing proc's coroutine, or Run's. It returns the worker of the
// proc the next wakeup is for, with the reason stored in it, or nil
// once the run is over (the deadlock, if that is how, in e.err).
func (e *Env) sched() *worker {
	for {
		if e.live == 0 {
			return nil
		}
		ev, ok := e.q.pop(e.now)
		if !ok {
			e.err = e.deadlock()
			return nil
		}
		if ev.fn != nil {
			if e.limit > 0 && ev.t > e.limit {
				return nil
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
			return nil
		}
		if ev.t > e.now {
			e.now = ev.t
		}
		e.events++
		p.parked = false
		p.w.reason = ev.reason
		return p.w
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
// returns a *DeadlockError in the latter case and nil otherwise. The
// idle workers exit with it; procs still parked stay suspended, and a
// later Run resumes them.
//
// Run's goroutine is the driver: it resumes whichever worker the
// dispatch loop woke, and that worker runs until the next wakeup is
// another worker's, which it yields back. A panic in a proc propagates
// out of the resume, and so out of Run.
func (e *Env) Run() error {
	for w := e.sched(); w != nil; {
		w, _ = w.next()
	}
	for _, w := range e.idle {
		w.stop()
	}
	e.idle = nil
	err := e.err
	e.err = nil
	return err
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
	// Parent, when set, is charged everything this account is: a
	// per-thread-kind account rolls up into its node's.
	Parent *CPUAccount
	// Counter, when set, mirrors each charge (in ns) into a metric.
	Counter *obs.Counter
}

// Busy returns the accumulated busy CPU time.
func (a *CPUAccount) Busy() Time {
	if a == nil {
		return 0
	}
	return a.busy
}

// Charge adds d of busy time to the account and its ancestors.
func (a *CPUAccount) Charge(d Time) {
	if d <= 0 {
		return
	}
	for ; a != nil; a = a.Parent {
		a.busy += d
		a.Counter.Add(int64(d))
	}
}

// SetCPUAccount attaches an account to the process; subsequent Work
// calls and Charge calls accrue to it.
func (p *Proc) SetCPUAccount(a *CPUAccount) { p.cpu = a }

// Charge bills d of busy CPU time to the process's account without
// advancing virtual time: a busy-wait that a wakeup ended charges the
// time it spun.
func (p *Proc) Charge(d Time) { p.cpu.Charge(d) }

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
