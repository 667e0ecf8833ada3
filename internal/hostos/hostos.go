// Package hostos models the host operating-system boundary that LITE
// lives behind: user/kernel crossings with their fixed cost, in-kernel
// dispatch, and the adaptive wait of the paper's §5.2 (a waiting thread
// busy-checks for a short window and then sleeps, paying a wakeup).
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

// EnterKernel charges only the entry crossing and dispatch, for a call
// whose result is delivered through memory shared with the caller
// instead of the syscall return path (LITE's optimized RPC path pays
// only the entry crossings of LT_RPC and LT_replyRPC).
func (o *OS) EnterKernel(p *simtime.Proc) {
	o.reg.Add("hostos.kernel_enters", 1)
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(o.cfg.SyscallCrossing + o.cfg.KernelDispatch)
	o.reg.AddSpan(t0, t0+o.cfg.SyscallCrossing, "hostos.crossing", parent)
	o.reg.AddSpan(t0+o.cfg.SyscallCrossing, p.Now(), "hostos.dispatch", parent)
}

// AdaptiveWait blocks until ready() holds, using LITE's adaptive
// thread model (§5.2): SpinWait, then SleepWait. It returns false if
// the deadline (if nonzero) passed first. cond is what the waker
// signals.
func (o *OS) AdaptiveWait(p *simtime.Proc, cond *simtime.Cond, ready func() bool, deadline simtime.Time) bool {
	o.SpinWait(p, cond, ready, deadline)
	return o.SleepWait(p, cond, ready, deadline)
}

// SpinWait is the busy phase: it returns once ready() holds, the poll
// window closes or the deadline passes, with the whole wait charged as
// CPU. A wait that ends ready counts as immediate or polled.
func (o *OS) SpinWait(p *simtime.Proc, cond *simtime.Cond, ready func() bool, deadline simtime.Time) {
	if ready() {
		o.reg.Add("hostos.wait.immediate", 1)
		return
	}
	limit := p.Now() + o.cfg.AdaptivePollWindow
	if deadline > 0 && deadline < limit {
		limit = deadline
	}
	for p.Now() < limit {
		t0 := p.Now()
		cond.WaitTimeout(p, limit-p.Now())
		p.Charge(p.Now() - t0)
		if ready() {
			o.reg.Add("hostos.wait.polled", 1)
			return
		}
	}
}

// SleepWait is the sleep phase: a wait that outlasted the busy phase
// parks for free and pays one wakeup (the hostos.wakeup span) when
// ready() holds.
func (o *OS) SleepWait(p *simtime.Proc, cond *simtime.Cond, ready func() bool, deadline simtime.Time) bool {
	return o.sleepWait(p, cond, ready, nil, deadline)
}

// SleepUnless is SleepWait without a deadline for a thread that gone()
// ends: woken to find gone() true, it returns false without paying a
// wakeup, as a thread of a crashed kernel never runs again.
func (o *OS) SleepUnless(p *simtime.Proc, cond *simtime.Cond, ready, gone func() bool) bool {
	return o.sleepWait(p, cond, ready, gone, 0)
}

func (o *OS) sleepWait(p *simtime.Proc, cond *simtime.Cond, ready, gone func() bool, deadline simtime.Time) bool {
	if ready() {
		return true
	}
	for !ready() {
		if deadline > 0 {
			if p.Now() >= deadline {
				return false
			}
			cond.WaitTimeout(p, deadline-p.Now())
		} else {
			cond.Wait(p)
		}
		if gone != nil && gone() {
			return false
		}
	}
	t0 := p.Now()
	p.Work(o.cfg.WakeupLatency)
	o.reg.Add("hostos.wait.slept", 1)
	o.reg.AddSpan(t0, p.Now(), "hostos.wakeup", procSpan(p))
	return true
}
