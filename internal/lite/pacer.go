package lite

import "lite/internal/simtime"

// Client-side overload pacer. The fair admission policy's Retry-After
// hint tells a shed client when its share at the server frees up; the
// retry layer already stretches the shed call's own backoff to honor
// it. The pacer (Options.Pacer) turns the same hint into flow control:
// the horizon is remembered per (server, function), and this client's
// NEXT calls to that target wait it out before posting — instead of
// burning a round trip each to be shed in turn. The horizon is a local
// scalar per target, so the disabled path costs nothing and the
// enabled path adds no messages.

// pacerLearn records a Retry-After hint against (dst, fn). Horizons
// only ever extend — a shorter hint racing in behind a longer one must
// not shrink the wait.
func (i *Instance) pacerLearn(p *simtime.Proc, dst, fn int, after simtime.Time) {
	if !i.opts.Pacer || after <= 0 {
		return
	}
	key := bindKey{dst, fn}
	if horizon := p.Now() + after; horizon > i.pacer[key] {
		i.pacer[key] = horizon
	}
}

// pacerWait delays the caller until the pacing horizon for (dst, fn)
// has passed. Expired horizons are dropped so the map stays small.
func (i *Instance) pacerWait(p *simtime.Proc, dst, fn int) {
	if !i.opts.Pacer || fn < FirstUserFunc {
		return
	}
	key := bindKey{dst, fn}
	until, ok := i.pacer[key]
	if !ok {
		return
	}
	if until <= p.Now() {
		delete(i.pacer, key)
		return
	}
	i.obsReg().Add("lite.pacer.delayed", 1)
	i.sleepSpan(p, until-p.Now(), "lite.pacer.wait")
}
