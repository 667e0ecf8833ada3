package load

import (
	"fmt"

	"lite/internal/cluster"
	"lite/internal/detrand"
	"lite/internal/obs"
	"lite/internal/simtime"
)

// Multi-issuer open-loop generation. A single aggregate Poisson stream
// is split deterministically across N client nodes, so the server sees
// exactly the aggregate arrival process regardless of how many issuers
// carry it, and each issuer's sub-stream is itself Poisson (thinning a
// Poisson process with independent coin flips yields independent
// Poisson processes at the thinned rates). Splitting one stream —
// instead of generating N independent ones — keeps the aggregate's
// arrival instants identical when the issuer count or weights change,
// which makes fairness comparisons an apples-to-apples ablation.

// splitMix is folded into the seed for the thinning coin flips so the
// split decisions are decorrelated from the inter-arrival draws that
// consumed the same seed in Poisson.
const splitMix = 0x9e3779b97f4a7c15

// SplitPoissonWeighted splits an aggregate Poisson(seed, ratePerUs, n,
// start) schedule across len(weights) sub-streams, assigning each
// arrival to issuer i with probability weights[i]/sum(weights). The
// split is a pure function of the arguments: the same seed replays the
// same per-issuer schedules bit for bit, and the concatenation of the
// sub-streams is exactly the aggregate schedule.
func SplitPoissonWeighted(seed uint64, ratePerUs float64, n int, start simtime.Time, weights []float64) []Schedule {
	if len(weights) == 0 {
		panic("load: SplitPoissonWeighted needs at least one weight")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("load: negative weight %g at index %d", w, i))
		}
		sum += w
	}
	if sum <= 0 {
		panic("load: weights sum to zero")
	}
	agg := Poisson(seed, ratePerUs, n, start)
	r := detrand.New(seed ^ splitMix)
	out := make([]Schedule, len(weights))
	for _, at := range agg {
		u := r.Float64() * sum
		i := 0
		for i < len(weights)-1 && u >= weights[i] {
			u -= weights[i]
			i++
		}
		out[i] = append(out[i], at)
	}
	return out
}

// RunMulti spawns one open-loop generator per issuer, issuer i on
// nodes[i] driving scheds[i]. issue receives the issuer index alongside
// the per-issuer request index. Results are per issuer, complete once
// the cluster's event loop drains.
func RunMulti(cls *cluster.Cluster, nodes []int, scheds []Schedule, issue func(p *simtime.Proc, issuer, k int) Status) []*Result {
	if len(nodes) != len(scheds) {
		panic(fmt.Sprintf("load: RunMulti got %d nodes for %d schedules", len(nodes), len(scheds)))
	}
	out := make([]*Result, len(nodes))
	for i := range nodes {
		i := i
		out[i] = Run(cls, nodes[i], scheds[i], func(p *simtime.Proc, k int) Status {
			return issue(p, i, k)
		})
	}
	return out
}

// Merge folds several per-issuer results into one aggregate view. The
// histogram is the union of the per-issuer success histograms.
func Merge(rs []*Result) *Result {
	agg := &Result{Hist: &obs.Histogram{}}
	for _, r := range rs {
		if r == nil {
			continue
		}
		agg.Issued += r.Issued
		agg.OK += r.OK
		agg.Shed += r.Shed
		agg.Timeout += r.Timeout
		agg.Errored += r.Errored
		agg.Hist.Merge(r.Hist)
		if agg.Start == 0 || (r.Start != 0 && r.Start < agg.Start) {
			agg.Start = r.Start
		}
		if r.End > agg.End {
			agg.End = r.End
		}
	}
	return agg
}
