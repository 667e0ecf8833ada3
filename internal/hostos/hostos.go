// Package hostos models the host operating-system boundary that LITE
// lives behind: user/kernel crossings with their fixed cost, in-kernel
// dispatch, and the shared-completion-page optimization of the paper's
// §5.2 (a system call returns to a user-level library immediately; the
// library busy-checks a page shared with the kernel for a short window
// and then sleeps, which is LITE's adaptive thread model).
package hostos

import (
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// OS is one node's operating-system boundary.
type OS struct {
	cfg *params.Config
	reg *obs.Registry
}

// New returns an OS boundary with the given cost model.
func New(cfg *params.Config) *OS { return &OS{cfg: cfg} }

// SetObs directs the boundary's metrics ("hostos.syscalls",
// "hostos.kernel_enters", wait-behaviour counters) and crossing spans
// into the given registry. A nil registry disables collection.
func (o *OS) SetObs(reg *obs.Registry) { o.reg = reg }

// procSpan returns the process's active trace span, if any.
func procSpan(p *simtime.Proc) *obs.Span {
	s, _ := p.Trace().(*obs.Span)
	return s
}

// Syscall runs fn in kernel context, charging both the entry and exit
// crossings plus the kernel dispatch cost. Use it for calls whose
// result is returned synchronously through the normal syscall path.
func (o *OS) Syscall(p *simtime.Proc, fn func()) {
	o.reg.Add("hostos.syscalls", 1)
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(o.cfg.SyscallCrossing + o.cfg.KernelDispatch)
	o.reg.AddSpan(t0, t0+o.cfg.SyscallCrossing, "hostos.crossing", parent)
	o.reg.AddSpan(t0+o.cfg.SyscallCrossing, p.Now(), "hostos.dispatch", parent)
	fn()
	t1 := p.Now()
	p.Work(o.cfg.SyscallCrossing)
	o.reg.AddSpan(t1, p.Now(), "hostos.crossing", parent)
}

// EnterKernel charges only the entry crossing and dispatch. Pair it
// with a CompletionPage when the result is delivered through shared
// memory instead of the syscall return path (LITE's optimized RPC
// path pays only the entry crossings of LT_RPC and LT_replyRPC).
func (o *OS) EnterKernel(p *simtime.Proc) {
	o.reg.Add("hostos.kernel_enters", 1)
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(o.cfg.SyscallCrossing + o.cfg.KernelDispatch)
	o.reg.AddSpan(t0, t0+o.cfg.SyscallCrossing, "hostos.crossing", parent)
	o.reg.AddSpan(t0+o.cfg.SyscallCrossing, p.Now(), "hostos.dispatch", parent)
}

// CompletionPage is a one-shot completion flag on a page shared
// between the kernel and a user process. The kernel side calls
// Complete; the user side calls AdaptiveWait.
type CompletionPage struct {
	ready bool
	cond  simtime.Cond
}

// Complete marks the result ready and wakes the waiter. Callable from
// processes and scheduler callbacks.
func (c *CompletionPage) Complete(e *simtime.Env) {
	c.ready = true
	c.cond.Broadcast(e)
}

// Ready reports whether Complete has been called.
func (c *CompletionPage) Ready() bool { return c.ready }

// AdaptiveWait blocks until Complete has been called, using LITE's
// adaptive thread model: it busy-checks the shared page for the
// configured poll window (charging CPU), then sleeps (free) and pays
// one scheduler wakeup on completion. It returns the total time
// waited.
func (o *OS) AdaptiveWait(p *simtime.Proc, c *CompletionPage) simtime.Time {
	start := p.Now()
	if c.ready {
		o.reg.Add("hostos.wait.immediate", 1)
		return 0
	}
	// Busy phase: burn CPU up to the poll window.
	deadline := start + o.cfg.AdaptivePollWindow
	for !c.ready && p.Now() < deadline {
		t0 := p.Now()
		c.cond.WaitTimeout(p, deadline-p.Now())
		p.Charge(p.Now() - t0)
	}
	if c.ready {
		o.reg.Add("hostos.wait.polled", 1)
		o.reg.Observe("hostos.adaptive_wait", p.Now()-start)
		return p.Now() - start
	}
	// Sleep phase: block without burning CPU, then pay the wakeup.
	for !c.ready {
		c.cond.Wait(p)
	}
	t0 := p.Now()
	p.Work(o.cfg.WakeupLatency)
	o.reg.Add("hostos.wait.slept", 1)
	o.reg.AddSpan(t0, p.Now(), "hostos.wakeup", procSpan(p))
	o.reg.Observe("hostos.adaptive_wait", p.Now()-start)
	return p.Now() - start
}

// BusyWait blocks until Complete has been called, busy-polling the
// whole time (all of it charged as CPU). It returns the time waited.
func (o *OS) BusyWait(p *simtime.Proc, c *CompletionPage) simtime.Time {
	start := p.Now()
	for !c.ready {
		t0 := p.Now()
		c.cond.Wait(p)
		p.Charge(p.Now() - t0)
	}
	return p.Now() - start
}
