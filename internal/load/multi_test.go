package load

import (
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestSplitPoissonDeterministic(t *testing.T) {
	start := simtime.Time(10 * time.Microsecond)
	a := SplitPoissonWeighted(42, 2.0, 2000, start, []float64{3, 1, 1, 1})
	b := SplitPoissonWeighted(42, 2.0, 2000, start, []float64{3, 1, 1, 1})
	if len(a) != len(b) {
		t.Fatalf("issuer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("issuer %d lengths differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("issuer %d arrival %d differs: %v vs %v", i, k, a[i][k], b[i][k])
			}
		}
	}
	// A different seed must change the split, or the seed is ignored.
	c := SplitPoissonWeighted(43, 2.0, 2000, start, []float64{3, 1, 1, 1})
	same := true
	for i := range a {
		if len(a[i]) != len(c[i]) {
			same = false
			break
		}
		for k := range a[i] {
			if a[i][k] != c[i][k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical splits")
	}
}

func TestSplitPoissonUnionIsAggregate(t *testing.T) {
	start := simtime.Time(10 * time.Microsecond)
	agg := Poisson(7, 1.5, 3000, start)
	split := SplitPoissonWeighted(7, 1.5, 3000, start, []float64{1, 1, 1, 1})
	// Merging the sub-streams in time order must reproduce the
	// aggregate schedule arrival for arrival: the split only deals out
	// instants, it never moves or drops them.
	idx := make([]int, len(split))
	for k, want := range agg {
		found := false
		for i := range split {
			if idx[i] < len(split[i]) && split[i][idx[i]] == want {
				idx[i]++
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("aggregate arrival %d (%v) missing from the split", k, want)
		}
	}
	total := 0
	for i := range split {
		total += len(split[i])
	}
	if total != len(agg) {
		t.Fatalf("split carries %d arrivals, aggregate has %d", total, len(agg))
	}
}

func TestSplitPoissonWeightProportions(t *testing.T) {
	start := simtime.Time(10 * time.Microsecond)
	n := 20000
	weights := []float64{0.595, 0.135, 0.135, 0.135}
	split := SplitPoissonWeighted(11, 2.0, n, start, weights)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := float64(n) * w / sum
		got := float64(len(split[i]))
		if got < want*0.93 || got > want*1.07 {
			t.Fatalf("issuer %d got %d arrivals, want ~%.0f (weight %.3f)", i, len(split[i]), want, w)
		}
	}
}

func TestSplitPoissonRejectsBadWeights(t *testing.T) {
	for _, weights := range [][]float64{nil, {}, {1, -0.5}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weights %v did not panic", weights)
				}
			}()
			SplitPoissonWeighted(1, 1.0, 10, 0, weights)
		}()
	}
}

// runMultiSynthetic mirrors runSynthetic with three issuers sharing one
// single-worker service, so the per-issuer results exercise the full
// RunMulti path under contention.
func runMultiSynthetic(t *testing.T, seed uint64) []*Result {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 3, 1<<20)
	worker := simtime.NewSemaphore(1)
	scheds := SplitPoissonWeighted(seed, 1.0, 400, simtime.Time(10*time.Microsecond), []float64{2, 1, 1})
	res := RunMulti(cls, []int{0, 1, 2}, scheds, func(p *simtime.Proc, issuer, k int) Status {
		worker.Acquire(p)
		p.Work(800 * time.Nanosecond)
		worker.Release(p.Env())
		return StatusOK
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunMultiDeterministic(t *testing.T) {
	a := runMultiSynthetic(t, 42)
	b := runMultiSynthetic(t, 42)
	for i := range a {
		if a[i].Issued != b[i].Issued || a[i].OK != b[i].OK {
			t.Fatalf("issuer %d counts differ: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].P99() != b[i].P99() {
			t.Fatalf("issuer %d p99 differs: %v vs %v", i, a[i].P99(), b[i].P99())
		}
		if a[i].End != b[i].End {
			t.Fatalf("issuer %d end times differ: %v vs %v", i, a[i].End, b[i].End)
		}
	}
	m := Merge(a)
	if m.OK != 400 {
		t.Fatalf("merged OK = %d, want all 400", m.OK)
	}
	if m.Hist.Count() != 400 {
		t.Fatalf("merged histogram holds %d samples, want 400", m.Hist.Count())
	}
}

func TestRunMultiRejectsMismatch(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched nodes/schedules did not panic")
		}
	}()
	RunMulti(cls, []int{0}, make([]Schedule, 2), func(p *simtime.Proc, issuer, k int) Status {
		return StatusOK
	})
}
