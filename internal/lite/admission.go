package lite

import (
	"lite/internal/params"
	"lite/internal/simtime"
)

// Cost-aware, per-client-fair admission control.
//
// The depth-only policy (Options.AdmissionHighWater alone) treats every
// queued call as equal, so one greedy client can occupy the whole
// pending-call budget and starve everyone else — exactly the
// multi-tenant sharing problem LITE's shared kernel-level RPC service
// (§5, §6) exists to arbitrate. The fair policy keeps, per function, a
// cost model and per-client in-flight accounting:
//
//   - cost of one call = input bytes + the EWMA of the handler's
//     observed service time (one cost unit per byte and per nanosecond;
//     both are "how long this call will occupy the server" proxies:
//     bytes for the data motion, the EWMA for the CPU);
//   - budget = AdmissionHighWater × the average per-call cost, i.e. the
//     depth knob re-expressed in cost units, so operators keep one
//     tuning parameter;
//   - each client may hold budget/activeClients of in-flight cost (its
//     fair share), plus a deficit-round-robin carryover: a round ends
//     when one budget's worth of cost has been admitted, and a client
//     that under-used its share while holding less than a share in
//     flight banks the unused part (capped at two shares) as deficit;
//   - a call past the share line is admitted only if the marginal cost
//     is covered 1:1 by banked deficit, and otherwise shed with a
//     Retry-After hint sized to when a slot for it should free up;
//   - shares and banks bind only under contention: a call that a parked
//     server thread can take at once (the caller's idle predicate) is
//     admitted while the budget has room, whatever its client's share
//     or its tenant's bank says — refusing it would idle the server.
//
// All state is integers, mutated only from the node's poller and server
// threads inside the deterministic simulation, so runs replay bit for
// bit.

const (
	// admEwmaShift is the EWMA decay: est += (sample - est) >> shift,
	// i.e. alpha = 1/8 — slow enough to ride out bimodal handlers,
	// fast enough to track a real shift within ~16 calls.
	admEwmaShift = 3

	// maxAdmCost clamps any single observation or per-call cost so a
	// pathological sample (an hours-long handler, a near-2^63 byte
	// claim) cannot overflow the int64 accounting that sums them.
	maxAdmCost = int64(1) << 40

	// maxTenantWeight clamps a tenant's QoS weight so weight x accrual
	// products stay far from int64 overflow.
	maxTenantWeight = int64(1) << 10

	// admAccrueRebase is the accrual-clock value at which tenant
	// accounting rebases (the monotonic admitted-cost counter and every
	// tenant's snapshot shift down together) so the clock can never
	// overflow int64 on a long run.
	admAccrueRebase = int64(1) << 48
)

// ewmaInt is an integer exponentially-weighted moving average. The
// first observation primes it; until then value() is zero and primed
// reports false, which admit() uses to fall back to depth-only.
type ewmaInt struct {
	v      int64
	primed bool
}

func (e *ewmaInt) observe(s int64) {
	if s < 0 {
		s = 0
	}
	if s > maxAdmCost {
		s = maxAdmCost
	}
	if !e.primed {
		e.v = s
		e.primed = true
		return
	}
	e.v += (s - e.v) >> admEwmaShift
}

// clientAdm is one client's admission accounting for one function.
type clientAdm struct {
	cost    int64 // admitted cost still in flight
	calls   int   // admitted calls still in flight
	used    int64 // cost admitted during the current DRR round
	deficit int64 // unused share carried from the previous round
}

// tenantAdm is one tenant's weighted admission accounting for one
// function. Unlike clientAdm's round-scoped shares, tenants draw from
// a credit bank that refills in proportion to their QoS weight, which
// stays meaningful even when thousands of sporadic tenants each hold a
// per-round share smaller than a single call's cost.
type tenantAdm struct {
	w      int64 // QoS weight (shares of the admission budget)
	credit int64 // banked admission credit, in cost units
	lastA  int64 // fnAdm.accrued snapshot at the last credit refresh
	rem    int64 // accrual division remainder, so credit is exact
	cost   int64 // admitted cost still in flight
	calls  int   // admitted calls still in flight
}

// fnAdm is the per-function fair-admission state.
type fnAdm struct {
	svc     ewmaInt // observed handler service time, nanoseconds
	in      ewmaInt // observed input size, bytes
	total   int64   // admitted in-flight cost across all clients
	round   int64   // cost admitted in the current DRR round
	clients map[int]*clientAdm

	// Tenant-weighted regime (nonzero tenant IDs only). accrued is a
	// monotonic clock of admitted tenant cost; each tenant's credit is
	// lazily topped up from it in proportion to weight. The map is
	// bounded by the number of registered tenants and never GC'd: a
	// tenant's bank is its QoS state, not per-round scratch.
	tenants map[uint16]*tenantAdm
	tsumW   int64 // sum of weights of tenants seen by this function
	accrued int64 // admitted tenant cost, monotonic (rebased, see below)

	// idleAdmits counts calls past their client's share or their
	// tenant's bank that were admitted because a worker was parked
	// (lite.adm.idle_admit).
	idleAdmits int64

	// Caps from params.Config (admFor overwrites the packaged
	// defaults with the deployment's config).
	hintCap    simtime.Time // Retry-After ceiling (AdmissionHintCap)
	bankShares int64        // deficit/credit cap in shares (AdmissionBankShares)
}

func newFnAdm() *fnAdm {
	def := params.Default()
	return &fnAdm{
		clients:    make(map[int]*clientAdm),
		tenants:    make(map[uint16]*tenantAdm),
		hintCap:    simtime.Time(def.AdmissionHintCap),
		bankShares: int64(def.AdmissionBankShares),
	}
}

// unit is the average per-call cost — the denomination the budget,
// shares, and tenant credit caps are all expressed in.
func (a *fnAdm) unit() int64 {
	u := a.svc.v + a.in.v
	if u < 1 {
		u = 1
	}
	return u
}

// callCost estimates the cost of admitting one call with the given
// input size.
func (a *fnAdm) callCost(bytes int64) int64 {
	c := bytes + a.svc.v
	if c < 1 {
		c = 1
	}
	if c > maxAdmCost {
		c = maxAdmCost
	}
	return c
}

// budget is the total in-flight cost the function accepts: the depth
// high-water mark expressed in cost units via the average call cost.
func (a *fnAdm) budget(hw int) int64 {
	b := int64(hw) * a.unit()
	if b < 1 {
		b = 1
	}
	return b
}

func (a *fnAdm) client(src int) *clientAdm {
	c := a.clients[src]
	if c == nil {
		c = &clientAdm{}
		a.clients[src] = c
	}
	return c
}

// active counts clients with admitted work in flight, always including
// the arriving client itself (a newcomer deserves a share before it
// holds anything). Counting over the map is order-independent, so map
// iteration cannot perturb the result.
func (a *fnAdm) active(src int) int {
	n := 0
	seen := false
	for id, c := range a.clients {
		if c.calls > 0 || c.cost > 0 {
			n++
			if id == src {
				seen = true
			}
		}
	}
	if !seen {
		n++
	}
	return n
}

// endRound closes a DRR round: a client that under-used its share
// banks the unused part as deficit, capped at two shares so an idle
// client cannot hoard unbounded credit; a client at or over its share
// starts the next round with none. Clients with nothing in flight and
// no deficit are garbage-collected. Every per-client update is
// independent, so map iteration order does not affect the outcome.
func (a *fnAdm) endRound(share int64) {
	for id, c := range a.clients {
		// Deficit is for clients that genuinely could not use their
		// share — under-admitted this round AND holding less than a
		// share in flight when it closed. A persistently over-share
		// client whose round usage merely dipped must not earn credit
		// it would immediately spend to stay over share.
		if spare := share - c.used; spare > 0 && c.cost < share {
			c.deficit += spare
			if lim := a.bankShares * share; c.deficit > lim {
				c.deficit = lim
			}
		} else {
			c.deficit = 0
		}
		c.used = 0
		if c.calls == 0 && c.cost == 0 && c.deficit == 0 {
			delete(a.clients, id)
		}
	}
	a.round = 0
}

// admit decides one arrival from src with the given input size, at the
// configured high-water mark and current queue depth. On admission it
// returns the charged cost, to be released via complete() when the
// reply posts. On a shed it returns a Retry-After hint: the estimated
// time until the client's in-flight work drains enough to admit one
// more call. idle reports a parked server thread no queued call has
// claimed: the share test is for dividing busy workers, so while the
// budget has room an idle arrival skips it (and spends no deficit).
func (a *fnAdm) admit(src int, bytes int64, hw, depth int, idle bool) (cost int64, hint simtime.Time, ok bool) {
	a.in.observe(bytes)
	cost = a.callCost(bytes)
	if !a.svc.primed {
		// Cold start: no service-time estimate means no cost model;
		// behave exactly like the depth-only policy until the first
		// completion primes the EWMA. The accounting below still runs
		// so in-flight state is consistent once the model wakes up.
		if depth >= hw {
			return 0, 0, false
		}
	} else {
		bud := a.budget(hw)
		share := bud / int64(a.active(src))
		if share < 1 {
			share = 1
		}
		if a.round >= bud {
			a.endRound(share)
		}
		c := a.client(src)
		if over := c.cost + cost - share; over > 0 {
			// Over share: the part of this call past the share line
			// must be covered 1:1 by deficit banked in under-used
			// earlier rounds. Admitting on spare total budget instead
			// was tried and rejected: spare slots open in proportion
			// to arrival rate, so a work-conservation rule hands
			// nearly all of them to the most aggressive client and
			// quietly re-creates the depth-only policy's proportional
			// allocation. A spare worker is different from a spare
			// queue slot: the idle arm gives away nothing a
			// better-behaved client is waiting for.
			spend := cost
			if over < cost {
				spend = over
			}
			switch {
			case idle && a.total+cost <= bud:
				a.idleAdmits++
			case spend > c.deficit:
				h := simtime.Time(a.svc.v) * simtime.Time(c.calls+1)
				if h > a.hintCap {
					h = a.hintCap
				}
				return 0, h, false
			default:
				c.deficit -= spend
			}
		}
	}
	c := a.client(src)
	c.cost += cost
	c.calls++
	c.used += cost
	a.total += cost
	a.round += cost
	return cost, 0, true
}

// complete releases an admitted call's cost when its reply posts.
func (a *fnAdm) complete(src int, cost int64) {
	c := a.clients[src]
	if c == nil {
		return
	}
	c.cost -= cost
	if c.cost < 0 {
		c.cost = 0
	}
	if c.calls > 0 {
		c.calls--
	}
	a.total -= cost
	if a.total < 0 {
		a.total = 0
	}
	if c.calls == 0 && c.cost == 0 && c.deficit == 0 && c.used == 0 {
		delete(a.clients, src)
	}
}

// tenant returns (lazily creating) tenant t's accounting, keeping the
// registered weight and the weight sum current. A newcomer's bank is
// seeded full so a fresh tenant is never cold-shed while others hold
// banked credit.
func (a *fnAdm) tenant(t uint16, w int64) *tenantAdm {
	if w < 1 {
		w = 1
	}
	if w > maxTenantWeight {
		w = maxTenantWeight
	}
	c := a.tenants[t]
	if c == nil {
		c = &tenantAdm{w: w, lastA: a.accrued, credit: a.creditCap(w)}
		a.tenants[t] = c
		a.tsumW += w
	} else if c.w != w {
		a.tsumW += w - c.w
		c.w = w
	}
	return c
}

// creditCap bounds a tenant's banked credit at AdmissionBankShares
// average calls' worth per weight share, so an idle tenant's burst
// allowance is a couple of calls (scaled by weight), never a hoard.
func (a *fnAdm) creditCap(w int64) int64 {
	lim := a.bankShares * a.unit() * w
	if lim < 1 {
		lim = 1
	}
	if lim > maxAdmCost {
		lim = maxAdmCost
	}
	return lim
}

// refreshTenant lazily pays out the credit tenant c earned since its
// last arrival: every admitted tenant call of cost C pays C x w/sumW
// to each registered tenant, tracked exactly with a division
// remainder. Total payout equals total admitted cost, so with every
// tenant backlogged, admitted throughput splits in proportion to
// weight.
func (a *fnAdm) refreshTenant(c *tenantAdm) {
	d := a.accrued - c.lastA
	c.lastA = a.accrued
	if d <= 0 || a.tsumW <= 0 {
		return
	}
	num := d*c.w + c.rem
	c.credit += num / a.tsumW
	c.rem = num % a.tsumW
	if lim := a.creditCap(c.w); c.credit > lim {
		c.credit = lim
		c.rem = 0
	}
}

// tenantHint estimates when tenant c's bank will cover one call of
// the given cost: the aggregate admitted cost needed to accrue the
// shortfall, expressed in average calls, times the service estimate.
func (a *fnAdm) tenantHint(c *tenantAdm, cost int64) simtime.Time {
	calls := int64(c.calls) + 1
	if short := cost - c.credit; short > 0 && a.tsumW > 0 {
		calls += short * a.tsumW / (c.w * a.unit())
	}
	sv := a.svc.v
	if sv < 1 {
		sv = 1
	}
	if calls > int64(a.hintCap)/sv {
		return a.hintCap
	}
	return simtime.Time(sv * calls)
}

// admitTenant decides one arrival from tenant t carrying QoS weight w.
// Tenants are admitted from a weighted credit bank rather than the
// per-client DRR shares: with ~1000 sporadic tenants a per-round share
// is smaller than one call's cost, so round-scoped shares would shed
// everything (or, with work conservation, hand slots out by arrival
// rate — the failure mode the per-client policy's comment documents).
// Instead every admitted tenant call accrues credit to all registered
// tenants in proportion to weight; an arrival is admitted when the
// global budget has room AND the tenant's bank covers the call's cost,
// charged 1:1. A tenant offering at or below its weighted share of
// capacity refills faster than it drains and is never shed; a greedy
// tenant's excess arrivals bounce off its empty bank without consuming
// budget, so it cannot move a well-behaved tenant's tail. The bank cap
// (creditCap) bounds idle hoarding; banking and the Retry-After hint
// are tenant-scoped. The bank binds only while every worker is busy:
// idle (see admit) admits on budget alone.
func (a *fnAdm) admitTenant(t uint16, w, bytes int64, hw, depth int, idle bool) (cost int64, hint simtime.Time, ok bool) {
	a.in.observe(bytes)
	cost = a.callCost(bytes)
	c := a.tenant(t, w)
	if !a.svc.primed {
		// Cold start: depth-only, like the per-client path. Accounting
		// below still runs so state is consistent once the model wakes.
		if depth >= hw {
			return 0, 0, false
		}
	} else {
		a.refreshTenant(c)
		switch {
		case a.total+cost > a.budget(hw):
			return 0, a.tenantHint(c, cost), false
		case c.credit >= cost:
			c.credit -= cost
		case idle:
			// Work-conservation floor: a worker is free, so holding this
			// tenant to its bank would shed work the server could run at
			// once — and, since credit accrues only from admitted tenant
			// cost, an all-banks-empty pool would otherwise starve
			// forever. Admit, spending whatever credit is there (never
			// going negative). With every worker busy the floor vanishes,
			// so a greedy tenant cannot ride it while victims queue.
			c.credit, c.rem = 0, 0
			a.idleAdmits++
		default:
			return 0, a.tenantHint(c, cost), false
		}
	}
	c.cost += cost
	c.calls++
	a.total += cost
	a.accrued += cost
	if a.accrued >= admAccrueRebase {
		// Rebase the monotonic accrual clock so it cannot overflow on
		// a long run: every snapshot shifts down with it, preserving
		// all pending diffs. Per-tenant updates are independent, so
		// map order cannot perturb the outcome.
		for _, tc := range a.tenants {
			tc.lastA -= a.accrued
		}
		a.accrued = 0
	}
	return cost, 0, true
}

// completeTenant releases an admitted tenant call's cost when its
// reply posts. Tenant entries are not GC'd: the bank is durable QoS
// state, bounded by the number of registered tenants.
func (a *fnAdm) completeTenant(t uint16, cost int64) {
	c := a.tenants[t]
	if c == nil {
		return
	}
	c.cost -= cost
	if c.cost < 0 {
		c.cost = 0
	}
	if c.calls > 0 {
		c.calls--
	}
	a.total -= cost
	if a.total < 0 {
		a.total = 0
	}
}

// admFor returns (lazily creating) the fair-admission state for fn.
func (i *Instance) admFor(fn int) *fnAdm {
	if i.adm == nil {
		i.adm = make(map[int]*fnAdm)
	}
	a := i.adm[fn]
	if a == nil {
		a = newFnAdm()
		a.hintCap = simtime.Time(i.cfg.AdmissionHintCap)
		a.bankShares = int64(i.cfg.AdmissionBankShares)
		i.adm[fn] = a
	}
	return a
}

// admServiceObserve feeds one observed handler service time (dequeue
// to reply, the same interval the lite.rpc.server span covers) into
// the function's estimator. Cheap integer bookkeeping: it never
// advances virtual time, so observing with the fair policy off cannot
// perturb a depth-only timeline.
func (i *Instance) admServiceObserve(fn int, d simtime.Time) {
	if fn < FirstUserFunc {
		return
	}
	i.admFor(fn).svc.observe(int64(d))
}

// admRelease returns an admitted call's cost to its function's budget
// when the call replies.
func (i *Instance) admRelease(c *Call) {
	if c.admCost <= 0 {
		return
	}
	if a := i.adm[c.Func]; a != nil {
		if c.Tenant != 0 {
			a.completeTenant(c.Tenant, c.admCost)
		} else {
			a.complete(c.Src, c.admCost)
		}
	}
	c.admCost = 0
}
