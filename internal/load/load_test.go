package load

import (
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(99, 1.5, 1000, 10*simtime.Time(time.Microsecond))
	b := Poisson(99, 1.5, 1000, 10*simtime.Time(time.Microsecond))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("arrival %d differs: %v vs %v", k, a[k], b[k])
		}
	}
	// A different seed must give a different schedule, or the seed is
	// being ignored.
	c := Poisson(100, 1.5, 1000, 10*simtime.Time(time.Microsecond))
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical schedules")
	}
}

func TestPoissonAscendingAndRate(t *testing.T) {
	start := simtime.Time(50 * time.Microsecond)
	s := Poisson(7, 2.0, 5000, start)
	prev := start
	for k, at := range s {
		if at < prev {
			t.Fatalf("arrival %d goes backwards: %v < %v", k, at, prev)
		}
		prev = at
	}
	// Mean inter-arrival at 2 req/us is 500ns; over 5000 samples the
	// empirical mean should be within a few percent.
	mean := float64(s[len(s)-1]-start) / float64(len(s))
	if mean < 450 || mean > 550 {
		t.Fatalf("mean inter-arrival = %.1fns, want ~500ns", mean)
	}
}

// runSynthetic drives the generator against a synthetic service: a
// single-worker queue simulated with a one-permit semaphore, each request costing a
// fixed service time. Everything is virtual-time deterministic.
func runSynthetic(t *testing.T, seed uint64) *Result {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 1, 1<<20)
	worker := simtime.NewSemaphore(1)
	sched := Poisson(seed, 1.0, 400, simtime.Time(10*time.Microsecond))
	res := Run(cls, 0, sched, func(p *simtime.Proc, k int) Status {
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

func TestRunDeterministic(t *testing.T) {
	a := runSynthetic(t, 42)
	b := runSynthetic(t, 42)
	if a.Issued != b.Issued || a.OK != b.OK {
		t.Fatalf("counts differ: %+v vs %+v", a, b)
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if a.Hist.Quantile(q) != b.Hist.Quantile(q) {
			t.Fatalf("q%.3f differs: %v vs %v", q, a.Hist.Quantile(q), b.Hist.Quantile(q))
		}
	}
	if a.P99() != b.P99() {
		t.Fatalf("p99 differs across identical runs: %v vs %v", a.P99(), b.P99())
	}
	if a.End != b.End {
		t.Fatalf("end times differ: %v vs %v", a.End, b.End)
	}
	if a.OK != 400 {
		t.Fatalf("OK = %d, want all 400", a.OK)
	}
}

func TestResultEmpty(t *testing.T) {
	r := &Result{Hist: &obs.Histogram{}}
	if r.P50() != 0 || r.P99() != 0 || r.P999() != 0 {
		t.Fatal("empty result must report zero quantiles")
	}
	if r.AchievedPerUs() != 0 {
		t.Fatal("empty result must report zero throughput")
	}
}
