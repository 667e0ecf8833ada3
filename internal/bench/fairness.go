package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/simtime"
)

func init() {
	register("fairness", "Per-client goodput under 2x overload: one admission bank per client vs one shared bank", fairness)
}

// The fairness experiment: four client nodes share one RPC server at
// 2x its capacity. Client 3 is greedy — it offers 5x the load of each
// well-behaved client — and every client demands at least its fair
// share, so the two configurations separate cleanly. Untenanted, each
// client node draws on its own weight-1 admission bank and per-client
// goodput equalizes. Run as one tenant, the four share one bank, which
// refills by exactly what it spends: only the depth budget decides,
// and goodput goes in proportion to arrival rate (plus the greedy
// client's structural advantage in the admission race).
const (
	fairnessClients = 4
	fairnessRate    = 2.0 // aggregate offered load, req/us (capacity is 1)
	fairnessReqs    = 2400
	fairnessSeed    = 42
	fairnessTenant  = 1 // the one tenant of the shared-bank run

	fairnessMaxRatio  = 1.5 // gate on bank-per-client goodput max/min
	fairnessMinSpread = 4.0 // the shared bank must show the unfair split
)

// fairnessWeights is each client's slice of the aggregate arrival
// stream: client 3 offers 1.25 req/us, the rest 0.25 req/us each.
var fairnessWeights = []float64{0.25, 0.25, 0.25, 1.25}

// runFairness drives the multi-issuer open-loop workload against the
// tail-experiment server (2 workers x 2us service) and returns the
// per-client results. With shared set, every client issues as one
// tenant, so all four draw on one bank.
func runFairness(seed uint64, shared bool) ([]*load.Result, error) {
	cls, dep, err := newLITEOpts(fairnessClients+1, tailOpts(48))
	if err != nil {
		return nil, err
	}
	const srvNode = fairnessClients
	if err := serveTail(dep.Instance(srvNode)); err != nil {
		return nil, err
	}
	clients := make([]*lite.Client, fairnessClients)
	for n := range clients {
		clients[n] = dep.Instance(n).KernelClient()
		if shared {
			clients[n] = dep.Instance(n).TenantClient(fairnessTenant)
		}
	}
	// Warm every client's binding — and prime the service-time EWMA the
	// admission cost model needs — before the schedule opens.
	for n, c := range clients {
		cls.GoOn(n, "warmup", func(p *simtime.Proc) {
			_, _ = c.RPCRetry(p, srvNode, tailFn, make([]byte, 16), 64)
		})
	}
	// One aggregate Poisson stream, deterministically thinned across the
	// issuers, so the server sees identical arrival instants in both
	// configurations. Each issuer draws its keys from its own Zipf stream
	// (skewed per-client working sets, as in the kvstore workloads).
	scheds := load.SplitPoissonWeighted(seed, fairnessRate, fairnessReqs, 50*time.Microsecond, fairnessWeights)
	nodes := make([]int, fairnessClients)
	keys := make([][]uint64, fairnessClients)
	for n := 0; n < fairnessClients; n++ {
		nodes[n] = n
		z := detrand.NewZipf(seed+uint64(n)*1000, 1.2, 1<<16)
		keys[n] = make([]uint64, len(scheds[n]))
		for k := range keys[n] {
			keys[n][k] = z.Next()
		}
	}
	// Issued raw (no retry wrapper): a shed must count as a shed, so the
	// per-client goodput measures what the server admitted, not how
	// persistently a client hammered it.
	res := load.RunMulti(cls, nodes, scheds, func(p *simtime.Proc, issuer, k int) load.Status {
		in := make([]byte, 16)
		binary.LittleEndian.PutUint64(in, keys[issuer][k])
		_, err := clients[issuer].RPC(p, srvNode, tailFn, in, 64)
		return statusOf(err)
	})
	if err := cls.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// fairnessRatio is the max/min per-client goodput (OK counts over a
// shared span, so the counts themselves compare).
func fairnessRatio(res []*load.Result) float64 {
	lo, hi := res[0].OK, res[0].OK
	for _, r := range res[1:] {
		lo, hi = min(lo, r.OK), max(hi, r.OK)
	}
	if lo == 0 {
		return float64(hi)
	}
	return float64(hi) / float64(lo)
}

func fairness() (*Table, error) {
	t := &Table{
		ID:     "fairness",
		Title:  "Per-client goodput at 2x overload, greedy client 3 vs 3 well-behaved (capacity 1 req/us)",
		Header: []string{"Banks", "Client", "Demand (req/us)", "Issued", "OK", "Shed", "Timeout", "Goodput (req/us)", "p99 (us)"},
	}
	var sum float64
	for _, w := range fairnessWeights {
		sum += w
	}
	for _, shared := range []bool{false, true} {
		res, err := runFairness(fairnessSeed, shared)
		if err != nil {
			return nil, err
		}
		policy := "bank per client"
		if shared {
			policy = "one shared bank"
		}
		span := load.Merge(res)
		for n, r := range res {
			goodput := "0.00"
			if span.End > span.Start {
				goodput = fmt.Sprintf("%.2f", float64(r.OK)*1000.0/float64(span.End-span.Start))
			}
			t.AddRow(policy, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", fairnessRate*fairnessWeights[n]/sum),
				fmt.Sprintf("%d", r.Issued), fmt.Sprintf("%d", r.OK),
				fmt.Sprintf("%d", r.Shed), fmt.Sprintf("%d", r.Timeout),
				goodput, us(r.P99()))
		}
		ratio := fairnessRatio(res)
		t.Note("%s admission: per-client goodput max/min = %.2f", policy, ratio)
		// The gates: banks per client equalize goodput, and the shared
		// bank, a plain depth cap, must not (or the run shows nothing).
		switch {
		case !shared && ratio > fairnessMaxRatio:
			return nil, fmt.Errorf("fairness: bank-per-client goodput max/min = %.2f, gate <= %.1f", ratio, fairnessMaxRatio)
		case shared && ratio < fairnessMinSpread:
			return nil, fmt.Errorf("fairness: shared-bank goodput max/min = %.2f, want >= %.0f", ratio, fairnessMinSpread)
		}
	}
	t.Note("identical arrival instants in both runs (one split Poisson stream); only the clients' banks differ")
	t.Note("one shared bank refills by what it spends, so only the depth budget binds and goodput tracks arrival share; a bank per client equalizes it and sheds the greedy client with a Retry-After hint")
	return t, nil
}
