package rnic

import "lite/internal/simtime"

// Wait parks the caller until the CQ sees activity (a queued push or a
// broadcast). Callers must re-check the queue after waking.
func (c *CQ) Wait(p *simtime.Proc) { c.cond.Wait(p) }

// WaitTimeout is Wait with a deadline; reports whether the wake came
// from a signal.
func (c *CQ) WaitTimeout(p *simtime.Proc, d simtime.Time) bool {
	return c.cond.WaitTimeout(p, d)
}

// Broadcast wakes every waiter on the CQ, so each re-checks the state
// it waits on (failure handling uses it to release pollers).
func (c *CQ) Broadcast(e *simtime.Env) { c.cond.Broadcast(e) }
