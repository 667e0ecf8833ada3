package lite

import (
	"lite/internal/params"
	"lite/internal/simtime"
)

// Cost-aware, weighted-fair admission control.
//
// A queue-depth cap alone treats every queued call as equal, so one
// greedy client can occupy the whole pending-call budget and starve
// everyone else — exactly the multi-tenant sharing problem LITE's
// shared kernel-level RPC service (§5, §6) exists to arbitrate. With
// Options.AdmissionHighWater set, each function keeps a cost model and
// one weighted credit bank per caller:
//
//   - cost of one call = input bytes + the EWMA of the handler's
//     observed service time (one cost unit per byte and per nanosecond:
//     bytes for the data motion, the EWMA for the CPU);
//   - budget = AdmissionHighWater × the average call cost, the depth
//     knob in cost units; a call that would overrun it is shed, unless
//     nothing is in flight;
//   - a caller is a tenant (Call.Tenant, its registered QoS weight) or
//     an untenanted client node (weight 1). Every admitted call of cost
//     C pays C × w/sumW into each bank, a call is admitted only if its
//     bank covers it, and a bank holds at most its weighted share of
//     the budget; so with every caller backlogged, admitted cost splits
//     in proportion to weight;
//   - a shed carries a Retry-After hint sized to when the caller's bank
//     should cover one more call;
//   - banks bind only under contention: a call that a parked server
//     thread can take at once is admitted while the budget has room —
//     refusing it would idle the server.
//
// A lone bank is paid back every unit it spends and may hold the whole
// budget, so with one caller only the budget decides: a depth cap is
// the one-bank case, and cold start (no service-time sample yet) is a
// plain depth cap.
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

	// maxTenantWeight clamps a bank's QoS weight so weight x accrual
	// products stay far from int64 overflow.
	maxTenantWeight = int64(1) << 10

	// admAccrueRebase is the accrual-clock value at which accounting
	// rebases (the monotonic admitted-cost counter and every bank's
	// snapshot shift down together) so the clock can never overflow
	// int64 on a long run.
	admAccrueRebase = int64(1) << 48
)

// ewmaInt is an integer exponentially-weighted moving average. The
// first observation primes it; until then value() is zero and primed
// reports false, which admit() uses to fall back to a depth cap.
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

// admKey names a caller's bank: a tenant ID (1..65535) for tenant
// calls, -1-node for an untenanted client node.
type admKey int

// keyOf is the bank that call c draws on.
func keyOf(c *Call) admKey {
	if c.Tenant != 0 {
		return admKey(c.Tenant)
	}
	return admKey(-1 - c.Src)
}

// bank is one caller's weighted admission account for one function.
type bank struct {
	w      int64 // QoS weight (shares of the admission budget)
	credit int64 // banked admission credit, in cost units
	lastA  int64 // fnAdm.accrued snapshot at the last credit refresh
	rem    int64 // accrual division remainder, so credit is exact
	cost   int64 // admitted cost still in flight
	calls  int   // admitted calls still in flight
}

// fnAdm is the per-function admission state. accrued is a monotonic
// clock of admitted cost; each bank's credit is lazily topped up from
// it in proportion to weight. The map is bounded by the number of
// callers (client nodes plus registered tenants) and never GC'd: a
// bank is its caller's QoS state.
type fnAdm struct {
	hw      int     // Options.AdmissionHighWater
	svc     ewmaInt // observed handler service time, nanoseconds
	in      ewmaInt // observed input size, bytes
	total   int64   // admitted in-flight cost across all banks
	banks   map[admKey]*bank
	sumW    int64 // sum of weights of the banks seen by this function
	accrued int64 // admitted cost, monotonic (rebased, see admit)

	// idleAdmits counts calls past their bank that were admitted
	// because a worker was parked (lite.adm.idle_admit).
	idleAdmits int64

	// Caps from params.Config (admFor overwrites the packaged
	// defaults with the deployment's config).
	hintCap    simtime.Time // Retry-After ceiling (AdmissionHintCap)
	bankShares int64        // credit cap floor in average calls (AdmissionBankShares)
}

func newFnAdm(hw int) *fnAdm {
	def := params.Default()
	return &fnAdm{
		hw:         hw,
		banks:      make(map[admKey]*bank),
		hintCap:    simtime.Time(def.AdmissionHintCap),
		bankShares: int64(def.AdmissionBankShares),
	}
}

// unit is the average per-call cost — the denomination the budget and
// the bank caps are expressed in.
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
func (a *fnAdm) budget() int64 {
	b := int64(a.hw) * a.unit()
	if b < 1 {
		b = 1
	}
	return b
}

// bankFor returns (lazily creating) k's bank, keeping its weight and the
// weight sum current. A newcomer's bank is seeded full so a fresh
// caller is never cold-shed while others hold banked credit.
func (a *fnAdm) bankFor(k admKey, w int64) *bank {
	if w < 1 {
		w = 1
	}
	if w > maxTenantWeight {
		w = maxTenantWeight
	}
	b := a.banks[k]
	if b == nil {
		a.sumW += w
		b = &bank{w: w, lastA: a.accrued, credit: a.creditCap(w)}
		a.banks[k] = b
	} else if b.w != w {
		a.sumW += w - b.w
		b.w = w
	}
	return b
}

// creditCap bounds a bank at its weighted share of the budget, but at
// no less than AdmissionBankShares average calls per unit of weight: a
// caller may burst to its share, never hoard past it.
func (a *fnAdm) creditCap(w int64) int64 {
	lim := a.budget() / a.sumW * w
	if floor := a.bankShares * a.unit() * w; lim < floor {
		lim = floor
	}
	if lim < 1 {
		lim = 1
	}
	if lim > maxAdmCost {
		lim = maxAdmCost
	}
	return lim
}

// refresh lazily pays out the credit bank b earned since its caller's
// last arrival: every admitted call of cost C pays C x w/sumW to each
// bank, tracked exactly with a division remainder. Total payout equals
// total admitted cost, so with every caller backlogged, admitted
// throughput splits in proportion to weight.
func (a *fnAdm) refresh(b *bank) {
	d := a.accrued - b.lastA
	b.lastA = a.accrued
	if d <= 0 || a.sumW <= 0 {
		return
	}
	num := d*b.w + b.rem
	b.credit += num / a.sumW
	b.rem = num % a.sumW
	if lim := a.creditCap(b.w); b.credit > lim {
		b.credit = lim
		b.rem = 0
	}
}

// hint estimates when bank b will cover one call of the given cost:
// the aggregate admitted cost needed to accrue the shortfall, expressed
// in average calls, times the service estimate.
func (a *fnAdm) hint(b *bank, cost int64) simtime.Time {
	calls := int64(b.calls) + 1
	if short := cost - b.credit; short > 0 && a.sumW > 0 {
		calls += short * a.sumW / (b.w * a.unit())
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

// admit decides one arrival for bank k (QoS weight w) with the given
// input size, at the current queue depth. On admission it returns the
// charged cost, to be released via complete() when the reply posts; on
// a shed, a Retry-After hint. idle reports a parked server thread no
// queued call has claimed.
//
// A caller offering at or below its weighted share of capacity refills
// faster than it drains and is never shed; a greedy caller's excess
// arrivals bounce off its empty bank without consuming budget, so it
// cannot move a well-behaved caller's tail. Credit is banked across
// arrivals rather than granted per round because, with ~1000 sporadic
// tenants, a round's share is smaller than one call.
func (a *fnAdm) admit(k admKey, w, bytes int64, depth int, idle bool) (cost int64, hint simtime.Time, ok bool) {
	a.in.observe(bytes)
	cost = a.callCost(bytes)
	b := a.bankFor(k, w)
	if !a.svc.primed {
		// Cold start: no service-time estimate means no cost model;
		// behave exactly like a depth cap until the first completion
		// primes the EWMA. The accounting below still runs so in-flight
		// state is consistent once the model wakes up.
		if depth >= a.hw {
			return 0, 0, false
		}
	} else {
		a.refresh(b)
		switch {
		case a.total > 0 && a.total+cost > a.budget():
			// Over budget. An idle function takes any one call, however
			// far above the average it is.
			return 0, a.hint(b, cost), false
		case b.credit >= cost:
			b.credit -= cost
		case idle:
			// Work-conservation floor: a worker is free, so holding this
			// caller to its bank would shed work the server could run at
			// once — and, since credit accrues only from admitted cost,
			// an all-banks-empty pool would otherwise starve forever.
			// Admit, spending whatever credit is there (never going
			// negative). With every worker busy the floor vanishes, so a
			// greedy caller cannot ride it while victims queue.
			b.credit, b.rem = 0, 0
			a.idleAdmits++
		default:
			return 0, a.hint(b, cost), false
		}
	}
	b.cost += cost
	b.calls++
	a.total += cost
	a.accrued += cost
	if a.accrued >= admAccrueRebase {
		// Rebase the monotonic accrual clock so it cannot overflow on
		// a long run: every snapshot shifts down with it, preserving
		// all pending diffs. Per-bank updates are independent, so map
		// order cannot perturb the outcome.
		for _, o := range a.banks {
			o.lastA -= a.accrued
		}
		a.accrued = 0
	}
	return cost, 0, true
}

// complete releases an admitted call's cost when its reply posts.
func (a *fnAdm) complete(k admKey, cost int64) {
	b := a.banks[k]
	if b == nil {
		return
	}
	b.cost -= cost
	if b.cost < 0 {
		b.cost = 0
	}
	if b.calls > 0 {
		b.calls--
	}
	a.total -= cost
	if a.total < 0 {
		a.total = 0
	}
}

// admFor returns (lazily creating) the admission state for fn.
func (i *Instance) admFor(fn int) *fnAdm {
	if i.adm == nil {
		i.adm = make(map[int]*fnAdm)
	}
	a := i.adm[fn]
	if a == nil {
		a = newFnAdm(i.opts.AdmissionHighWater)
		a.hintCap = simtime.Time(i.cfg.AdmissionHintCap)
		a.bankShares = int64(i.cfg.AdmissionBankShares)
		i.adm[fn] = a
	}
	return a
}

// admServiceObserve feeds one observed handler service time (dequeue
// to reply, the same interval the lite.rpc.server span covers) into
// the function's estimator. Cheap integer bookkeeping: it never
// advances virtual time, so observing without admission control cannot
// perturb an unadmitted timeline.
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
		a.complete(keyOf(c), c.admCost)
	}
	c.admCost = 0
}
