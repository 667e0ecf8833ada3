package lite

import (
	"fmt"
	"testing"

	"lite/internal/simtime"
)

func TestEwmaInt(t *testing.T) {
	cases := []struct {
		name    string
		samples []int64
		want    int64
	}{
		// The first sample primes the estimator directly.
		{"prime", []int64{100}, 100},
		// est += (sample - est) >> 3.
		{"decay", []int64{100, 200}, 112},
		// Negative samples clamp to zero before the update.
		{"negative-clamps", []int64{64, -1000}, 56},
		// Oversized samples clamp to maxAdmCost before the update.
		{"large-clamps", []int64{0, 1 << 62}, (int64(1) << 40) >> admEwmaShift},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ewmaInt
			for _, s := range tc.samples {
				e.observe(s)
			}
			if e.v != tc.want {
				t.Fatalf("samples %v: got %d, want %d", tc.samples, e.v, tc.want)
			}
		})
	}
	t.Run("unprimed", func(t *testing.T) {
		var e ewmaInt
		if e.primed || e.v != 0 {
			t.Fatalf("fresh estimator: primed=%v v=%d", e.primed, e.v)
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// Alternating 1us / 9us handlers: the estimate settles between
		// the modes (fixed points ~4733 and ~5267), never chasing
		// either extreme.
		var e ewmaInt
		for k := 0; k < 64; k++ {
			if k%2 == 0 {
				e.observe(1000)
			} else {
				e.observe(9000)
			}
		}
		if e.v < 4000 || e.v > 6000 {
			t.Fatalf("bimodal estimate %d outside [4000, 6000]", e.v)
		}
	})
}

func TestAdmitColdStartFallsBackToDepth(t *testing.T) {
	a := newFnAdm()
	// No service-time estimate yet: the policy must behave exactly like
	// the depth-only shed.
	if _, hint, ok := a.admit(1, 64, 4, 4, false); ok || hint != 0 {
		t.Fatalf("depth at high water: ok=%v hint=%v, want shed with no hint", ok, hint)
	}
	cost, _, ok := a.admit(1, 64, 4, 3, false)
	if !ok {
		t.Fatal("depth under high water must admit during cold start")
	}
	if cost != 64 {
		t.Fatalf("cold-start cost = %d, want input bytes 64", cost)
	}
}

func TestAdmitOneClientDegenerate(t *testing.T) {
	// A single client gets the whole budget: fairness with nobody to be
	// fair to must not shed below the depth-equivalent capacity.
	a := newFnAdm()
	a.svc.observe(1000)
	costs := make([]int64, 0, 4)
	for k := 0; k < 4; k++ {
		cost, hint, ok := a.admit(1, 100, 4, k, false)
		if !ok || hint != 0 {
			t.Fatalf("admit %d: ok=%v hint=%v", k, ok, hint)
		}
		costs = append(costs, cost)
	}
	// cost = bytes + svc EWMA; budget = hw x (svc + in) = 4 x 1100.
	for k, c := range costs {
		if c != 1100 {
			t.Fatalf("cost[%d] = %d, want 1100", k, c)
		}
	}
	// The 5th call finds the budget full and the deficit empty: shed,
	// with a hint sized to draining the client's in-flight work.
	_, hint, ok := a.admit(1, 100, 4, 4, false)
	if ok {
		t.Fatal("5th call admitted past a full budget")
	}
	if want := simtime.Time(5000); hint != want {
		t.Fatalf("hint = %v, want svc x (calls+1) = %v", hint, want)
	}
	// One completion frees a slot.
	a.complete(1, 1100)
	if _, _, ok := a.admit(1, 100, 4, 3, false); !ok {
		t.Fatal("admit after completion failed")
	}
}

func TestAdmitCostOverflowClamp(t *testing.T) {
	a := newFnAdm()
	a.svc.observe(1)
	cost, _, ok := a.admit(1, int64(1)<<60, 2, 0, false)
	if !ok {
		t.Fatal("first oversized call must be admitted")
	}
	if cost != maxAdmCost {
		t.Fatalf("cost = %d, want clamp at %d", cost, maxAdmCost)
	}
	// A second clamped call still fits the budget (2 x avg unit); the
	// third must shed — and the arithmetic stays well clear of int64
	// overflow throughout.
	if _, _, ok := a.admit(1, int64(1)<<60, 2, 1, false); !ok {
		t.Fatal("second oversized call must be admitted")
	}
	_, hint, ok := a.admit(1, int64(1)<<60, 2, 2, false)
	if ok {
		t.Fatal("third oversized call admitted past the budget")
	}
	if hint <= 0 || hint > a.hintCap {
		t.Fatalf("hint = %v outside (0, %v]", hint, a.hintCap)
	}
	if a.total < 0 || a.total > 3*maxAdmCost {
		t.Fatalf("total cost %d corrupted", a.total)
	}
}

func TestAdmitHintClamp(t *testing.T) {
	a := newFnAdm()
	// An enormous (clamped) service estimate times queued calls must
	// never exceed the hint cap.
	a.svc.observe(1 << 62)
	if _, _, ok := a.admit(1, 0, 1, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	_, hint, ok := a.admit(1, 0, 1, 1, false)
	if ok {
		t.Fatal("second call admitted past a budget of one")
	}
	if hint != a.hintCap {
		t.Fatalf("hint = %v, want clamp at %v", hint, a.hintCap)
	}
}

func TestAdmitDeficitRoundRobin(t *testing.T) {
	// Two clients, fixed cost 1000/call (zero-byte inputs, svc=1000ns),
	// hw=4 so budget=4000 and the two-client share is 2000. The
	// scripted sequence exercises every admit rule: within-share, the
	// over-share shed, deficit grant at a round boundary, and spend.
	a := newFnAdm()
	a.svc.observe(1000)
	const admit, complete = 0, 1
	steps := []struct {
		op       int
		src      int
		wantOK   bool
		wantHint simtime.Time
	}{
		{op: admit, src: 1, wantOK: true}, // r1: only active client, share 4000
		{op: admit, src: 2, wantOK: true}, // r1: within share 2000
		{op: admit, src: 2, wantOK: true}, // r1: at share
		{op: complete, src: 2},            // one of c2's calls drains
		{op: admit, src: 2, wantOK: true}, // r1: back within share; round reaches budget
		// Round boundary on the next admit: c1 used 1000 < share while
		// holding 1000 < share in flight, so it banks 1000 deficit;
		// c2 used 3000 and banks nothing.
		{op: admit, src: 1, wantOK: true},                  // r2: at share, no deficit needed
		{op: admit, src: 1, wantOK: true},                  // r2: 1000 over share, covered by the banked deficit
		{op: admit, src: 1, wantOK: false, wantHint: 4000}, // deficit spent -> shed, hint = 1000 x (3+1)
		{op: admit, src: 2, wantOK: false, wantHint: 3000}, // c2 banked nothing -> shed, hint = 1000 x (2+1)
	}
	for k, st := range steps {
		if st.op == complete {
			a.complete(st.src, 1000)
			continue
		}
		_, hint, ok := a.admit(st.src, 0, 4, k, false)
		if ok != st.wantOK {
			t.Fatalf("step %d (src %d): ok=%v, want %v", k, st.src, ok, st.wantOK)
		}
		if !ok && hint != st.wantHint {
			t.Fatalf("step %d (src %d): hint=%v, want %v", k, st.src, hint, st.wantHint)
		}
	}
}

func TestAdmitDeficitSpendIsIncremental(t *testing.T) {
	// Banked deficit covers the marginal cost of each over-share call
	// 1:1 (true DRR), not the cumulative overage: a client with two
	// calls' worth of deficit gets exactly two calls past its share.
	a := newFnAdm()
	a.svc.observe(1000)
	a.client(2).cost, a.client(2).calls = 1000, 1 // keeps active=2, share=2000
	c := a.client(1)
	c.cost, c.calls, c.deficit = 2000, 2, 2000
	if _, _, ok := a.admit(1, 0, 4, 0, false); !ok {
		t.Fatal("first over-share call must spend deficit and admit")
	}
	if c.deficit != 1000 {
		t.Fatalf("deficit after first spend = %d, want 1000", c.deficit)
	}
	if _, _, ok := a.admit(1, 0, 4, 0, false); !ok {
		t.Fatal("second over-share call must spend the remaining deficit")
	}
	if c.deficit != 0 {
		t.Fatalf("deficit after second spend = %d, want 0", c.deficit)
	}
	if _, hint, ok := a.admit(1, 0, 4, 0, false); ok || hint == 0 {
		t.Fatalf("third over-share call: ok=%v hint=%v, want shed with hint", ok, hint)
	}
}

func TestEndRoundDeficitCapAndGC(t *testing.T) {
	a := newFnAdm()
	busy := a.client(7)
	busy.cost, busy.calls = 1, 1
	// Client 8 used more than its share and has nothing left in flight:
	// it earns no deficit and must be garbage-collected.
	a.client(8).used = 2500
	a.endRound(2000)
	if busy.deficit != 2000 {
		t.Fatalf("first round deficit = %d, want the full share 2000", busy.deficit)
	}
	a.endRound(2000)
	a.endRound(2000)
	if busy.deficit != 4000 {
		t.Fatalf("deficit after three idle rounds = %d, want cap at two shares", busy.deficit)
	}
	if a.clients[8] != nil {
		t.Fatal("departed over-share client must be garbage-collected")
	}
	if a.clients[7] == nil {
		t.Fatal("client with in-flight work must survive the round")
	}
}

func TestAdmitDeterministicReplay(t *testing.T) {
	// The same interleaved multi-client arrival sequence must produce
	// identical decisions on every run: the accounting may live in maps
	// but no decision may depend on iteration order.
	run := func() []string {
		a := newFnAdm()
		a.svc.observe(1500)
		var out []string
		srcs := []int{3, 1, 2, 1, 1, 3, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2}
		for k, src := range srcs {
			cost, hint, ok := a.admit(src, int64(16*(k%3)), 6, k%6, false)
			out = append(out, fmt.Sprintf("%d:%v/%d/%v", src, ok, cost, hint))
			if k%5 == 4 && ok {
				a.complete(src, cost)
			}
		}
		return out
	}
	a, b := run(), run()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("replay diverged at %d: %q vs %q", k, a[k], b[k])
		}
	}
}

func TestAdmitTenantColdStartFallsBackToDepth(t *testing.T) {
	a := newFnAdm()
	if _, hint, ok := a.admitTenant(1, 1, 64, 4, 4, false); ok || hint != 0 {
		t.Fatalf("depth at high water: ok=%v hint=%v, want shed with no hint", ok, hint)
	}
	cost, _, ok := a.admitTenant(1, 1, 64, 4, 3, false)
	if !ok {
		t.Fatal("depth under high water must admit during cold start")
	}
	if cost != 64 {
		t.Fatalf("cold-start cost = %d, want input bytes 64", cost)
	}
}

func TestTenantWeightClampAndSum(t *testing.T) {
	a := newFnAdm()
	if a.tenant(1, 0).w != 1 {
		t.Fatal("weight 0 must clamp to 1")
	}
	if a.tenant(2, 1<<20).w != maxTenantWeight {
		t.Fatalf("oversized weight must clamp to %d", maxTenantWeight)
	}
	if want := 1 + maxTenantWeight; a.tsumW != want {
		t.Fatalf("tsumW = %d, want %d", a.tsumW, want)
	}
	// A weight change moves the sum by the delta, not a re-add.
	a.tenant(1, 5)
	if want := 5 + maxTenantWeight; a.tsumW != want {
		t.Fatalf("tsumW after reweight = %d, want %d", a.tsumW, want)
	}
}

func TestAdmitTenantNewcomerSeededAtCap(t *testing.T) {
	// A tenant's first-ever arrival must be admitted: the bank is seeded
	// at the cap, so newcomers are not cold-shed while others hold
	// banked credit.
	a := newFnAdm()
	a.svc.observe(1000)
	cost, _, ok := a.admitTenant(1, 1, 0, 4, 0, false)
	if !ok || cost != 1000 {
		t.Fatalf("newcomer: ok=%v cost=%d, want admit at cost 1000", ok, cost)
	}
	c := a.tenants[1]
	// cap = bankShares x unit x w = 2 x 1000 x 1, minus the call just
	// admitted.
	if c.credit != 1000 {
		t.Fatalf("credit after first admit = %d, want 1000", c.credit)
	}
}

func TestAdmitTenantEmptyBankShedsWithoutConsumingBudget(t *testing.T) {
	a := newFnAdm()
	a.svc.observe(1000)
	// Another tenant holds work in flight, so the idle floor is off.
	if _, _, ok := a.admitTenant(1, 1, 0, 8, 0, false); !ok {
		t.Fatal("setup admit failed")
	}
	g := a.tenant(7, 1)
	g.credit, g.rem, g.lastA = 0, 0, a.accrued
	before := a.total
	_, hint, ok := a.admitTenant(7, 1, 0, 8, 0, false)
	if ok {
		t.Fatal("empty bank must shed while the server is busy")
	}
	if a.total != before {
		t.Fatalf("shed consumed budget: total %d -> %d", before, a.total)
	}
	if hint <= 0 || hint > a.hintCap {
		t.Fatalf("hint = %v outside (0, %v]", hint, a.hintCap)
	}
}

func TestAdmitTenantIdleFloorNeverStarves(t *testing.T) {
	// Credit accrues only from admitted tenant cost, so an empty bank
	// with a parked server thread must admit (work conservation), never
	// deadlock waiting for accrual that can only come from itself.
	a := newFnAdm()
	a.svc.observe(1000)
	g := a.tenant(7, 1)
	g.credit, g.rem = 0, 0
	for k := 0; k < 3; k++ {
		cost, _, ok := a.admitTenant(7, 1, 0, 8, 0, true)
		if !ok {
			t.Fatalf("serial call %d shed on an idle server", k)
		}
		if g.credit < 0 {
			t.Fatalf("credit went negative: %d", g.credit)
		}
		a.completeTenant(7, cost)
	}
}

func TestAdmitTenantFullBudgetShedsDespiteCredit(t *testing.T) {
	a := newFnAdm()
	a.svc.observe(1000)
	// hw=2 -> budget 2000. Two admitted calls fill it; the third tenant
	// holds a full bank but must still shed on the global budget.
	if _, _, ok := a.admitTenant(1, 1, 0, 2, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	if _, _, ok := a.admitTenant(2, 1, 0, 2, 0, false); !ok {
		t.Fatal("second call must be admitted")
	}
	_, hint, ok := a.admitTenant(3, 1, 0, 2, 0, false)
	if ok {
		t.Fatal("third call admitted past a full budget")
	}
	if hint <= 0 || hint > a.hintCap {
		t.Fatalf("hint = %v outside (0, %v]", hint, a.hintCap)
	}
	// A completion frees the budget again.
	cost := a.tenants[1].cost
	a.completeTenant(1, cost)
	if _, _, ok := a.admitTenant(3, 1, 0, 2, 0, false); !ok {
		t.Fatal("admit after completion failed")
	}
}

func TestAdmitTenantHintClamp(t *testing.T) {
	a := newFnAdm()
	a.svc.observe(1 << 62) // clamps to maxAdmCost
	if _, _, ok := a.admitTenant(1, 1, 0, 1, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	_, hint, ok := a.admitTenant(1, 1, 0, 1, 1, false)
	if ok {
		t.Fatal("second call admitted past a budget of one")
	}
	if hint != a.hintCap {
		t.Fatalf("hint = %v, want clamp at %v", hint, a.hintCap)
	}
}

func TestAdmitTenantWeightedGoodputSplit(t *testing.T) {
	// Two tenants, weights 3:1, each attempting one fixed-cost call per
	// round with completions keeping the global budget free: admission
	// is limited purely by weighted credit refill, so the admitted
	// throughput must converge to the 3:1 weight ratio.
	a := newFnAdm()
	a.svc.observe(1000)
	admits := map[uint16]int{}
	type flight struct {
		ten  uint16
		cost int64
	}
	var inflight []flight
	const rounds = 400
	for k := 0; k < rounds; k++ {
		for _, tn := range []uint16{1, 2} {
			w := int64(1)
			if tn == 1 {
				w = 3
			}
			cost, _, ok := a.admitTenant(tn, w, 0, 16, 0, false)
			if ok {
				admits[tn]++
				inflight = append(inflight, flight{tn, cost})
			}
		}
		// One completion per round: slower than the combined demand of
		// two calls per round, so the server stays busy and the idle
		// floor never fires — admission is governed by weighted credit.
		if len(inflight) > 0 {
			a.completeTenant(inflight[0].ten, inflight[0].cost)
			inflight = inflight[1:]
		}
	}
	ratio := float64(admits[1]) / float64(admits[2])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("goodput ratio %.2f (admits %d vs %d), want ~3.0", ratio, admits[1], admits[2])
	}
}

func TestAdmitTenantAccrualRebasePreservesDiffs(t *testing.T) {
	a := newFnAdm()
	a.svc.observe(1000)
	t1 := a.tenant(1, 1) // snapshot at accrued=0
	// Pretend a long run: push the accrual clock to the rebase edge.
	a.accrued = admAccrueRebase - 500
	cost, _, ok := a.admitTenant(2, 1, 0, 4, 0, false)
	if !ok || cost != 1000 {
		t.Fatalf("edge admit: ok=%v cost=%d", ok, cost)
	}
	if a.accrued != 0 {
		t.Fatalf("accrued = %d after rebase, want 0", a.accrued)
	}
	t2 := a.tenants[2]
	// t2 snapped at rebase-500, then 1000 was admitted: its pending
	// diff must still be exactly 1000 after the rebase.
	if d := a.accrued - t2.lastA; d != 1000 {
		t.Fatalf("t2 pending diff = %d, want 1000", d)
	}
	a.refreshTenant(t2)
	// t2 spent 1000 from its seeded 2000 bank, then earns back its
	// weighted half of the 1000 accrual.
	if t2.credit != 1500 {
		t.Fatalf("t2 credit = %d, want 1500", t2.credit)
	}
	// t1's diff covers the whole simulated history and caps out.
	a.refreshTenant(t1)
	if want := a.creditCap(1); t1.credit != want {
		t.Fatalf("t1 credit = %d, want cap %d", t1.credit, want)
	}
}

func TestAdmitTenantDeterministicReplay(t *testing.T) {
	// Interleaved tenant and per-client arrivals must replay bit for
	// bit: no decision may depend on map iteration order.
	run := func() []string {
		a := newFnAdm()
		a.svc.observe(1500)
		var out []string
		seq := []struct {
			ten uint16
			w   int64
			src int
		}{
			{ten: 1, w: 3}, {src: 9}, {ten: 2, w: 1}, {ten: 1, w: 3},
			{src: 8}, {ten: 3, w: 2}, {ten: 2, w: 1}, {ten: 1, w: 3},
			{ten: 3, w: 2}, {src: 9}, {ten: 2, w: 1}, {ten: 1, w: 3},
		}
		for k, st := range seq {
			var cost int64
			var hint simtime.Time
			var ok bool
			if st.ten != 0 {
				cost, hint, ok = a.admitTenant(st.ten, st.w, int64(16*(k%3)), 5, k%5, false)
			} else {
				cost, hint, ok = a.admit(st.src, int64(16*(k%3)), 5, k%5, false)
			}
			out = append(out, fmt.Sprintf("%d/%d:%v/%d/%v", st.ten, st.src, ok, cost, hint))
			if k%4 == 3 && ok {
				if st.ten != 0 {
					a.completeTenant(st.ten, cost)
				} else {
					a.complete(st.src, cost)
				}
			}
		}
		return out
	}
	x, y := run(), run()
	for k := range x {
		if x[k] != y[k] {
			t.Fatalf("replay diverged at %d: %q vs %q", k, x[k], y[k])
		}
	}
}
