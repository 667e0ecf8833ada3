package lite

import (
	"errors"

	"lite/internal/detrand"
	"lite/internal/simtime"
)

// RPC retry layer: a bounded-attempt exponential-backoff-with-jitter
// wrapper over rpc. The jitter is derived deterministically from the
// simulation clock and the call's coordinates — never from wall-clock
// or a global RNG — so a run with a given fault plan replays bit for
// bit.

// maxRetryBackoff caps a single backoff sleep.
const maxRetryBackoff = 20 * 1000 * 1000 // 20ms

// retryAttempts bounds the RPC retry wrapper (RPCRetry) and a
// restarted node's rejoin announcement; each attempt pays its own
// timeout.
const retryAttempts = 4

// rpcRetry issues the call c with up to retryAttempts attempts.
// Between attempts it sleeps base<<attempt plus jitter. Once the
// membership view declares the target dead the call fails fast with
// ErrNodeDead; if the membership epoch advanced across a failed
// attempt, the binding is dropped so the next attempt renegotiates
// against the (possibly restarted) server. A second consecutive
// timeout also forces a rebind, which heals a ring whose head-update
// credits were lost to message drops.
//
// The retryable errors are handled very differently. A timeout is
// ambiguous — the call may have executed with only the reply lost — so
// user-function attempts all carry one client sequence number and the
// server's dedup window guarantees single execution; each timed-out
// attempt also bumps the call's ambiguous-attempt count, which lets a
// restarted server (whose window died with it) answer the retry with
// the terminal ErrMaybeExecuted instead of re-executing. An overload
// shed is a definitive "did NOT execute": the retry backs off and
// tries again — stretching the backoff to any Retry-After hint the
// shed shipped — but never rebinds (the binding is
// healthy; the server is just full) and never counts toward the
// rebind-forcing timeout streak.
func (i *Instance) rpcRetry(p *simtime.Proc, c *rpcCall) ([]byte, error) {
	if c.fn >= FirstUserFunc && c.dst != i.node.ID {
		c.seq = i.seqID()
	}
	c.dst = i.own.resolve(c.dst, c.fn)
	var lastErr error
	timeouts := 0
	movedHops := 0
	for a := 0; a < retryAttempts; a++ {
		if i.stopped {
			return nil, ErrNodeDead
		}
		if c.dst != i.node.ID && i.NodeDead(c.dst) {
			return nil, ErrNodeDead
		}
		epochBefore := i.epoch
		out, err := i.rpc(p, c)
		if err == nil {
			return out, nil
		}
		var me *MovedError
		if errors.As(err, &me) {
			// The function migrated: learn the new home and re-issue
			// there. A redirect is not a failure, so it does not consume
			// a retry attempt; the hop bound catches a routing loop from
			// wildly stale views.
			i.own.learn(c.dst, c.fn, me.To)
			movedHops++
			if movedHops > len(i.dep.Instances)+1 {
				return nil, err
			}
			i.obsReg().Add("lite.retry.moved", 1)
			c.dst = i.own.resolve(me.To, c.fn)
			a--
			continue
		}
		if !retryable(err) {
			if errors.Is(err, ErrMaybeExecuted) {
				i.obsReg().Add("lite.retry.maybe_executed", 1)
			}
			return nil, err
		}
		lastErr = err
		if a == retryAttempts-1 {
			break
		}
		i.obsReg().Add("lite.retry.attempts", 1)
		delay := i.retryDelay(p, a)
		if errors.Is(err, ErrOverloaded) {
			i.obsReg().Add("lite.retry.overloads", 1)
			timeouts = 0
			var oe *OverloadError
			if errors.As(err, &oe) && oe.RetryAfter > delay {
				// The server estimated when this client's share frees
				// up; waiting less just buys another shed.
				i.obsReg().Add("lite.retry.hint_waits", 1)
				delay = oe.RetryAfter
			}
		} else {
			timeouts++
			c.attempt++
			if i.epoch != epochBefore || timeouts >= 2 {
				i.obsReg().Add("lite.retry.rebinds", 1)
				i.resetBinding(c.dst, c.fn)
			}
		}
		i.sleepSpan(p, delay, "lite.retry.backoff")
	}
	return nil, lastErr
}

// retryable reports whether an error is worth another attempt.
// ErrNodeDead is terminal; name-service and permission errors are
// definitive answers, not transport failures — and so is
// ErrMaybeExecuted, which by construction can never become
// unambiguous by retrying.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrOverloaded)
}

// retryDelay returns the backoff before attempt a+1: base<<a, capped,
// with deterministic jitter in [0, d/2) mixed from the current virtual
// time, the node id, and the attempt number.
func (i *Instance) retryDelay(p *simtime.Proc, a int) simtime.Time {
	d := i.opts.RetryBackoff
	if d <= 0 {
		d = 100 * 1000 // 100us
	}
	d <<= uint(a)
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	j := detrand.Mix64(uint64(p.Now()) ^ uint64(i.node.ID)<<40 ^ uint64(a)<<56)
	return d + simtime.Time(j%uint64(d/2+1))
}
