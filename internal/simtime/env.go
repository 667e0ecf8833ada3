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
// (Cond, Semaphore, Chan), or by queueing on a Server resource.
//
// Processes marked as daemons (GoDaemon) do not keep the simulation
// alive: Run returns once every non-daemon process has finished, which
// is how long-lived background pollers are modeled.
//
// # Scheduling
//
// Events at exactly the current instant wait in a FIFO run queue and
// all others in one min-heap on (time, sequence) (see queue.go); they
// are dispatched in strictly nondecreasing (time, sequence) order, so
// two events at the same instant run in the order they were scheduled.
// That total order is the determinism contract: it is independent of
// host speed, GOMAXPROCS, and scheduler implementation, so a seeded run
// replays bit-identically anywhere.
//
// The event loop itself is continuation-stealing: whichever process
// parks runs the dispatch loop inline (sched). If the next event wakes
// the parking process itself — the common case for timer-driven code
// such as NIC pipeline stages and poller ticks — park returns with no
// switch at all. Waking a different process is one coroutine switch
// and no trip through the Go scheduler: the parking coroutine resumes
// the woken one itself, which then sits one link further down a resume
// chain that starts at Run's goroutine. A wakeup for a process up that
// chain (one suspended inside a resume it made) is yielded upward to
// it instead, a switch per link; on a ping-pong between two processes
// that is one switch a handoff.
//
// A timed wait (Cond.WaitTimeout) queues its timeout lazily: only if
// its process has no earlier timeout event queued. That event, popping
// while a later deadline is live, re-queues the deadline under the
// deadline's own (time, sequence). A wait that a signal ends early thus
// rarely leaves an event of its own behind, and every timeout still
// fires at the position an eagerly queued one would.
//
// # Callbacks
//
// Everything that is not a process wakeup is an Action: a value whose
// Fire method runs in scheduler context at its instant. Schedule queues
// one; At queues a plain func as an Action, a conversion that does not
// allocate. Hot hardware paths (the NIC's commit, scatter and
// completion steps) schedule pooled typed records instead of closures,
// so a record holds only the fields its step reads and the steady state
// allocates nothing per event. Both kinds share one dispatch path.
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
	now    Time
	seq    int64
	q      eventQueue
	events int64

	// err is the deadlock a run ended in, for Run to return.
	err error

	live int // non-daemon procs that have not finished

	// procs holds the procs that have not finished, in no particular
	// order: each knows its slot, and a finished one's slot takes the
	// last proc.
	procs []*Proc

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

	// resumed is set while the coroutine runs or waits inside a resume
	// it made itself: it is on the resume chain, so a worker below it
	// reaches it by yielding upward, never by resuming it.
	resumed bool

	// next resumes the coroutine and returns the worker it yields: a
	// worker up the chain to hand on to, or nil once the run is over.
	// yield is the coroutine's side of that handoff; stop ends an idle
	// coroutine.
	next  func() (*worker, bool)
	yield func(*worker) bool
	stop  func()
}

// event is a pending wakeup or callback. Events are stored by value in
// the event queue's run queue and heap, so scheduling allocates nothing
// in steady state.
type event struct {
	t   Time
	seq int64
	// act is the callback to fire, or the proc to wake as a *wakeup.
	act Action
	// gen is a wakeup's wait generation<<1 | its WakeReason, or 0 for a
	// timeout event, which is checked against the proc's deadline.
	gen uint64
}

// wakeup is a Proc in an event's act: the event wakes the proc rather
// than firing a callback.
type wakeup Proc

// Fire is never called: sched resumes a wakeup's proc instead.
func (*wakeup) Fire(*Env) { panic("simtime: wakeup fired as a callback") }

// Action is a callback event: Fire runs at the scheduled instant, in
// scheduler context while every process is parked. It may mutate shared
// state and wake processes (for example via Cond.Signal), and schedule
// further actions, including itself; it must not block.
type Action interface {
	Fire(*Env)
}

// funcAction adapts a plain func to Action. A func value fits the
// interface word as it is, so the conversion allocates nothing.
type funcAction func(*Env)

// Fire calls f.
func (f funcAction) Fire(e *Env) { f(e) }

// NewEnv returns an empty simulation environment at virtual time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Events returns the number of events dispatched so far: process
// wakeups delivered plus callbacks run. Stale (superseded) wakeups are
// not counted. For a given workload the count is deterministic, which
// makes it the denominator for the events-per-second figure the `scale`
// benchmark reports.
func (e *Env) Events() int64 { return e.events }

// Proc is a simulated process (thread of execution) inside an Env.
type Proc struct {
	env    *Env
	slot   int // index in env.procs while not finished
	name   string
	w      *worker
	gen    uint64
	parked bool
	done   bool
	daemon bool

	// dl is the deadline of the timed wait in progress (dl.seq 0:
	// none). tt and tseq key the proc's earliest queued timeout event
	// (tseq 0: none); see Cond.WaitTimeout.
	dl   deadline
	tt   Time
	tseq int64

	cpu *CPUAccount

	// trace is an opaque slot for observability context (the active
	// trace span) carried by this process across blocking points.
	// simtime never interprets it; keeping it per-process rather than
	// in a shared registry means two processes interleaving at a
	// blocking point cannot clobber each other's context.
	trace any
}

// deadline is a timed wait's expiry: its instant and the sequence
// number it took when armed.
type deadline struct {
	t   Time
	seq int64
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

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
	p := &Proc{
		env:    e,
		slot:   len(e.procs),
		name:   name,
		w:      w,
		gen:    1,
		parked: true,
		daemon: daemon,
	}
	w.p, w.fn = p, fn
	e.procs = append(e.procs, p)
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
		e.dropProc(p)
		if !p.daemon {
			e.live--
		}
		e.idle = append(e.idle, w)
		if !w.handoff(e.sched()) {
			return
		}
	}
}

// handoff passes control from w's coroutine to the worker to, and on
// to whichever it passes to, until w is the one to run. A suspended
// target is resumed from here, one link further down the chain; a
// target up the chain (or nil, the end of the run) is yielded upward.
// It reports false once Run has stopped w.
func (w *worker) handoff(to *worker) bool {
	for to != w {
		if to == nil || to.resumed {
			w.resumed = false
			// Whoever resumes w does so because w is the target.
			return w.yield(to)
		}
		to = to.resume()
	}
	return true
}

// resume runs w's coroutine until it yields, and returns what it
// yields: a worker further up the chain, or nil.
func (w *worker) resume() *worker {
	w.resumed = true
	up, _ := w.next()
	return up
}

// dropProc removes a finished proc from e.procs.
func (e *Env) dropProc(p *Proc) {
	last := len(e.procs) - 1
	if p.slot != last {
		q := e.procs[last]
		e.procs[p.slot] = q
		q.slot = p.slot
	}
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// wakeAt schedules a wakeup for p at time t, provided p is still in
// generation gen when the event fires. Stale events are skipped.
func (e *Env) wakeAt(t Time, p *Proc, gen uint64, reason WakeReason) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(e.now, event{t: t, seq: e.seq, act: (*wakeup)(p), gen: gen<<1 | uint64(reason)})
}

// timeoutAt arms the timeout of p's timed wait at time t. It takes a
// sequence number as wakeAt would, but queues an event only if p has no
// earlier timeout event queued: that one re-queues the deadline when it
// pops (see sched). The wait must clear p.dl when it ends.
func (e *Env) timeoutAt(t Time, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	p.dl = deadline{t, e.seq}
	if p.tseq != 0 && p.tt <= t {
		return
	}
	p.tt, p.tseq = t, e.seq
	e.q.push(e.now, event{t: t, seq: e.seq, act: (*wakeup)(p)})
}

// Schedule queues a to fire at virtual time t (or now, if t is in the
// past). Callbacks model asynchronous hardware activity such as NIC
// delivery; see Action for what one may do.
func (e *Env) Schedule(t Time, a Action) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.q.push(e.now, event{t: t, seq: e.seq, act: a})
}

// At schedules fn to run at virtual time t (or now, if t is in the
// past); it is Schedule with fn adapted to an Action.
func (e *Env) At(t Time, fn func(*Env)) { e.Schedule(t, funcAction(fn)) }

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
// otherwise it hands off along the resume chain (see handoff) and stays
// suspended until its own wakeup resumes it.
func (p *Proc) park() WakeReason {
	p.parked = true
	w := p.w
	w.handoff(p.env.sched())
	return w.reason
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
		wk, wake := ev.act.(*wakeup)
		if !wake {
			if ev.t > e.now {
				e.now = ev.t
			}
			e.events++
			ev.act.Fire(e)
			continue
		}
		// A wakeup that is stale, superseded by a later prepareWait, is
		// skipped without advancing the clock; so is a timeout event
		// that is not the proc's earliest or whose wait is over. The
		// earliest, popping while a later deadline is live, re-queues
		// that deadline under its own (t, seq).
		p := (*Proc)(wk)
		reason := WakeReason(ev.gen & 1)
		if ev.gen == 0 {
			if ev.seq != p.tseq {
				continue
			}
			p.tseq = 0
			if p.dl.seq == 0 {
				continue
			}
			if p.dl.seq != ev.seq {
				p.tt, p.tseq = p.dl.t, p.dl.seq
				e.q.requeue(event{t: p.dl.t, seq: p.dl.seq, act: ev.act})
				continue
			}
		} else if ev.gen>>1 != p.gen || !p.parked {
			continue
		}
		if ev.t > e.now {
			e.now = ev.t
		}
		e.events++
		p.parked = false
		p.w.reason = reason
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

// DeadlockError reports that the simulation stalled: live non-daemon
// processes remain but no event can wake any process.
type DeadlockError struct {
	// Parked lists the names of processes that were still blocked.
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simtime: deadlock with %d parked process(es): %v", len(e.Parked), e.Parked)
}

// Run executes the simulation until all non-daemon processes finish or
// no progress is possible. It returns a *DeadlockError in the latter
// case and nil otherwise. The idle workers exit with it; procs still
// parked stay suspended, and a later Run resumes them.
//
// Run's goroutine heads the resume chain: it resumes whichever worker
// the dispatch loop woke, and the chain below hands control on (see
// handoff) until the run is over and nil comes back up. A panic in a
// proc propagates out of each resume up the chain, and so out of Run.
func (e *Env) Run() error {
	for w := e.sched(); w != nil; {
		w = w.resume()
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
