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

// cli is the bank key of untenanted client node n.
func cli(n int) admKey { return keyOf(&Call{Src: n}) }

func TestAdmitColdStartFallsBackToDepth(t *testing.T) {
	a := newFnAdm(4)
	// No service-time estimate yet: admission must behave exactly like
	// a depth cap.
	if _, hint, ok := a.admit(cli(1), 1, 64, 4, false); ok || hint != 0 {
		t.Fatalf("depth at high water: ok=%v hint=%v, want shed with no hint", ok, hint)
	}
	cost, _, ok := a.admit(cli(1), 1, 64, 3, false)
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
	a := newFnAdm(4)
	a.svc.observe(1000)
	costs := make([]int64, 0, 4)
	for k := 0; k < 4; k++ {
		cost, hint, ok := a.admit(cli(1), 1, 100, k, false)
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
	// The 5th call finds the budget full: shed, with a hint sized to
	// draining the client's in-flight work.
	_, hint, ok := a.admit(cli(1), 1, 100, 4, false)
	if ok {
		t.Fatal("5th call admitted past a full budget")
	}
	if want := simtime.Time(5000); hint != want {
		t.Fatalf("hint = %v, want svc x (calls+1) = %v", hint, want)
	}
	// One completion frees a slot.
	a.complete(cli(1), 1100)
	if _, _, ok := a.admit(cli(1), 1, 100, 3, false); !ok {
		t.Fatal("admit after completion failed")
	}
}

// TestOneBankIsADepthCap: a lone bank is paid back every unit it
// spends, so whatever the arrival, size and completion mix, its credit
// never refuses a call — every decision is the budget's. That is what
// makes a queue-depth cap the one-caller case of the bank.
func TestOneBankIsADepthCap(t *testing.T) {
	seed := uint64(0x2545f4914f6cdd1d)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	a := newFnAdm(8)
	a.svc.observe(2000)
	var inflight []int64
	admitted, shed := 0, 0
	for step := 0; step < 20000; step++ {
		if next(2) == 0 && len(inflight) > 0 {
			a.complete(cli(0), inflight[0])
			inflight = inflight[1:]
			a.svc.observe(int64(1800 + next(400)))
			continue
		}
		bytes := int64(16 + next(48))
		before := a.total
		cost, _, ok := a.admit(cli(0), 1, bytes, len(inflight), false)
		if fits := before == 0 || before+a.callCost(bytes) <= a.budget(); ok != fits {
			t.Fatalf("step %d: ok=%v but the budget says %v (in flight %d)", step, ok, fits, before)
		}
		if !ok {
			shed++
			continue
		}
		admitted++
		inflight = append(inflight, cost)
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("the mix never exercised both outcomes: %d admitted, %d shed", admitted, shed)
	}
}

func TestAdmitCostOverflowClamp(t *testing.T) {
	a := newFnAdm(2)
	a.svc.observe(1)
	cost, _, ok := a.admit(cli(1), 1, int64(1)<<60, 0, false)
	if !ok {
		t.Fatal("first oversized call must be admitted")
	}
	if cost != maxAdmCost {
		t.Fatalf("cost = %d, want clamp at %d", cost, maxAdmCost)
	}
	// A second clamped call still fits the budget (2 x avg unit); the
	// third must shed — and the arithmetic stays well clear of int64
	// overflow throughout.
	if _, _, ok := a.admit(cli(1), 1, int64(1)<<60, 1, false); !ok {
		t.Fatal("second oversized call must be admitted")
	}
	_, hint, ok := a.admit(cli(1), 1, int64(1)<<60, 2, false)
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
	a := newFnAdm(1)
	// An enormous (clamped) service estimate times queued calls must
	// never exceed the hint cap.
	a.svc.observe(1 << 62)
	if _, _, ok := a.admit(cli(1), 1, 0, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	_, hint, ok := a.admit(cli(1), 1, 0, 1, false)
	if ok {
		t.Fatal("second call admitted past a budget of one")
	}
	if hint != a.hintCap {
		t.Fatalf("hint = %v, want clamp at %v", hint, a.hintCap)
	}
}

func TestAdmitDeterministicReplay(t *testing.T) {
	// The same interleaved multi-client arrival sequence must produce
	// identical decisions on every run: the accounting may live in maps
	// but no decision may depend on iteration order.
	run := func() []string {
		a := newFnAdm(6)
		a.svc.observe(1500)
		var out []string
		srcs := []int{3, 1, 2, 1, 1, 3, 2, 1, 3, 2, 1, 1, 2, 3, 1, 2}
		for k, src := range srcs {
			cost, hint, ok := a.admit(cli(src), 1, int64(16*(k%3)), k%6, false)
			out = append(out, fmt.Sprintf("%d:%v/%d/%v", src, ok, cost, hint))
			if k%5 == 4 && ok {
				a.complete(cli(src), cost)
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
	a := newFnAdm(4)
	if _, hint, ok := a.admit(admKey(1), 1, 64, 4, false); ok || hint != 0 {
		t.Fatalf("depth at high water: ok=%v hint=%v, want shed with no hint", ok, hint)
	}
	cost, _, ok := a.admit(admKey(1), 1, 64, 3, false)
	if !ok {
		t.Fatal("depth under high water must admit during cold start")
	}
	if cost != 64 {
		t.Fatalf("cold-start cost = %d, want input bytes 64", cost)
	}
}

func TestTenantWeightClampAndSum(t *testing.T) {
	a := newFnAdm(4)
	if a.bankFor(1, 0).w != 1 {
		t.Fatal("weight 0 must clamp to 1")
	}
	if a.bankFor(2, 1<<20).w != maxTenantWeight {
		t.Fatalf("oversized weight must clamp to %d", maxTenantWeight)
	}
	if want := 1 + maxTenantWeight; a.sumW != want {
		t.Fatalf("tsumW = %d, want %d", a.sumW, want)
	}
	// A weight change moves the sum by the delta, not a re-add.
	a.bankFor(1, 5)
	if want := 5 + maxTenantWeight; a.sumW != want {
		t.Fatalf("tsumW after reweight = %d, want %d", a.sumW, want)
	}
}

func TestAdmitTenantNewcomerSeededAtCap(t *testing.T) {
	// A tenant's first-ever arrival must be admitted: the bank is seeded
	// at the cap, so newcomers are not cold-shed while others hold
	// banked credit.
	a := newFnAdm(4)
	a.svc.observe(1000)
	cost, _, ok := a.admit(admKey(1), 1, 0, 0, false)
	if !ok || cost != 1000 {
		t.Fatalf("newcomer: ok=%v cost=%d, want admit at cost 1000", ok, cost)
	}
	// A lone tenant's cap is its share of the whole budget, 4 x 1000,
	// minus the call just admitted.
	if c := a.banks[1]; c.credit != 3000 {
		t.Fatalf("credit after first admit = %d, want 3000", c.credit)
	}
	// The second of two weight-1 tenants is seeded at half the budget.
	if _, _, ok := a.admit(admKey(2), 1, 0, 0, false); !ok {
		t.Fatal("second newcomer shed")
	}
	if c := a.banks[2]; c.credit != 1000 {
		t.Fatalf("second newcomer's credit = %d, want 2000 - 1000", c.credit)
	}
	// Past hw/bankShares banks the floor takes over: bankShares x unit.
	for k := admKey(3); k < 9; k++ {
		a.bankFor(k, 1)
	}
	if lim := a.creditCap(1); lim != 2000 {
		t.Fatalf("cap among 8 banks = %d, want the floor 2 x 1000", lim)
	}
}

func TestAdmitTenantEmptyBankShedsWithoutConsumingBudget(t *testing.T) {
	a := newFnAdm(8)
	a.svc.observe(1000)
	// Another tenant holds work in flight, so the idle floor is off.
	if _, _, ok := a.admit(admKey(1), 1, 0, 0, false); !ok {
		t.Fatal("setup admit failed")
	}
	g := a.bankFor(7, 1)
	g.credit, g.rem, g.lastA = 0, 0, a.accrued
	before := a.total
	_, hint, ok := a.admit(admKey(7), 1, 0, 0, false)
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
	a := newFnAdm(8)
	a.svc.observe(1000)
	g := a.bankFor(7, 1)
	g.credit, g.rem = 0, 0
	for k := 0; k < 3; k++ {
		cost, _, ok := a.admit(admKey(7), 1, 0, 0, true)
		if !ok {
			t.Fatalf("serial call %d shed on an idle server", k)
		}
		if g.credit < 0 {
			t.Fatalf("credit went negative: %d", g.credit)
		}
		a.complete(admKey(7), cost)
	}
}

func TestAdmitTenantFullBudgetShedsDespiteCredit(t *testing.T) {
	a := newFnAdm(2)
	a.svc.observe(1000)
	// hw=2 -> budget 2000. Two admitted calls fill it; the third tenant
	// holds a full bank but must still shed on the global budget.
	if _, _, ok := a.admit(admKey(1), 1, 0, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	if _, _, ok := a.admit(admKey(2), 1, 0, 0, false); !ok {
		t.Fatal("second call must be admitted")
	}
	_, hint, ok := a.admit(admKey(3), 1, 0, 0, false)
	if ok {
		t.Fatal("third call admitted past a full budget")
	}
	if hint <= 0 || hint > a.hintCap {
		t.Fatalf("hint = %v outside (0, %v]", hint, a.hintCap)
	}
	// A completion frees the budget again.
	cost := a.banks[1].cost
	a.complete(admKey(1), cost)
	if _, _, ok := a.admit(admKey(3), 1, 0, 0, false); !ok {
		t.Fatal("admit after completion failed")
	}
}

func TestAdmitTenantHintClamp(t *testing.T) {
	a := newFnAdm(1)
	a.svc.observe(1 << 62) // clamps to maxAdmCost
	if _, _, ok := a.admit(admKey(1), 1, 0, 0, false); !ok {
		t.Fatal("first call must be admitted")
	}
	_, hint, ok := a.admit(admKey(1), 1, 0, 1, false)
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
	a := newFnAdm(16)
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
			cost, _, ok := a.admit(admKey(tn), w, 0, 0, false)
			if ok {
				admits[tn]++
				inflight = append(inflight, flight{tn, cost})
			}
		}
		// One completion per round: slower than the combined demand of
		// two calls per round, so the server stays busy and the idle
		// floor never fires — admission is governed by weighted credit.
		if len(inflight) > 0 {
			a.complete(admKey(inflight[0].ten), inflight[0].cost)
			inflight = inflight[1:]
		}
	}
	ratio := float64(admits[1]) / float64(admits[2])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("goodput ratio %.2f (admits %d vs %d), want ~3.0", ratio, admits[1], admits[2])
	}
}

func TestAdmitTenantAccrualRebasePreservesDiffs(t *testing.T) {
	a := newFnAdm(4)
	a.svc.observe(1000)
	t1 := a.bankFor(1, 1) // snapshot at accrued=0
	// Pretend a long run: push the accrual clock to the rebase edge.
	a.accrued = admAccrueRebase - 500
	cost, _, ok := a.admit(admKey(2), 1, 0, 0, false)
	if !ok || cost != 1000 {
		t.Fatalf("edge admit: ok=%v cost=%d", ok, cost)
	}
	if a.accrued != 0 {
		t.Fatalf("accrued = %d after rebase, want 0", a.accrued)
	}
	t2 := a.banks[2]
	// t2 snapped at rebase-500, then 1000 was admitted: its pending
	// diff must still be exactly 1000 after the rebase.
	if d := a.accrued - t2.lastA; d != 1000 {
		t.Fatalf("t2 pending diff = %d, want 1000", d)
	}
	a.refresh(t2)
	// t2 spent 1000 from its seeded 2000 bank, then earns back its
	// weighted half of the 1000 accrual.
	if t2.credit != 1500 {
		t.Fatalf("t2 credit = %d, want 1500", t2.credit)
	}
	// t1's diff covers the whole simulated history and caps out.
	a.refresh(t1)
	if want := a.creditCap(1); t1.credit != want {
		t.Fatalf("t1 credit = %d, want cap %d", t1.credit, want)
	}
}

func TestAdmitTenantDeterministicReplay(t *testing.T) {
	// Interleaved tenant and per-client arrivals must replay bit for
	// bit: no decision may depend on map iteration order.
	run := func() []string {
		a := newFnAdm(5)
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
			key := keyOf(&Call{Tenant: st.ten, Src: st.src})
			cost, hint, ok := a.admit(key, max(st.w, 1), int64(16*(k%3)), k%5, false)
			out = append(out, fmt.Sprintf("%d/%d:%v/%d/%v", st.ten, st.src, ok, cost, hint))
			if k%4 == 3 && ok {
				a.complete(key, cost)
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

// The admission ledger is conserved: across a seeded mix of client and
// tenant arrivals (some on an idle server), completions and service
// samples, the in-flight total equals the sum of every bank's in-flight
// cost, the weight sum equals the sum of bank weights, and no bank's
// credit goes negative or past the largest cap.
func TestAdmissionLedgerMatchesScan(t *testing.T) {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	type held struct {
		key  admKey
		cost int64
	}
	a := newFnAdm(8)
	var inflight []held
	admitted, shed := 0, 0
	for step := 0; step < 50000; step++ {
		switch op := next(10); {
		case op < 5:
			// Client nodes 0..11 and tenants 1..4 of weight 1..4.
			key, w := cli(next(12)), int64(1)
			if next(3) == 0 {
				ten := 1 + next(4)
				key, w = admKey(ten), int64(ten)
			}
			cost, _, ok := a.admit(key, w, int64(next(4096)), len(inflight), next(4) == 0)
			if !ok {
				shed++
				continue
			}
			admitted++
			inflight = append(inflight, held{key, cost})
		case len(inflight) > 0:
			k := next(len(inflight))
			h := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			a.complete(h.key, h.cost)
			a.svc.observe(int64(500 + next(3000)))
		}
		var total, sumW int64
		for k, b := range a.banks {
			total += b.cost
			sumW += b.w
			if b.credit < 0 || b.credit > maxAdmCost {
				t.Fatalf("step %d: bank %d credit %d outside [0, %d]", step, k, b.credit, maxAdmCost)
			}
		}
		if total != a.total || sumW != a.sumW {
			t.Fatalf("step %d: total %d sumW %d, banks sum to %d and %d", step, a.total, a.sumW, total, sumW)
		}
	}
	if admitted == 0 || shed == 0 {
		t.Fatalf("the mix never exercised both outcomes: %d admitted, %d shed", admitted, shed)
	}
}

// An idle function takes any one call, however far above the average
// cost: with a budget of one average call, a larger call would
// otherwise be shed forever, even with nothing in flight.
func TestAdmitEmptyFunctionTakesAnyCall(t *testing.T) {
	a := newFnAdm(1)
	a.svc.observe(1000)
	big, _, ok := a.admit(cli(1), 1, 5000, 0, false)
	if !ok {
		t.Fatal("a call above the budget was shed with nothing in flight")
	}
	if _, _, ok := a.admit(cli(1), 1, 0, 1, false); ok {
		t.Fatal("a second call admitted past a full budget")
	}
	a.complete(cli(1), big)
	if _, _, ok := a.admit(cli(1), 1, 5000, 0, false); !ok {
		t.Fatal("the large call was shed again once the function drained")
	}
}
