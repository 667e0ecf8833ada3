package graph

import (
	"testing"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/workload"
)

func testGraph() *workload.Graph {
	return workload.NewPowerLawGraph(7, 2000, 20000)
}

func newLITECluster(t *testing.T, n int) (*cluster.Cluster, *lite.Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

func TestRefPageRankConserves(t *testing.T) {
	g := testGraph()
	ranks := RefPageRank(g, 10, 0.85)
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Rank mass stays near 1 (dangling vertices leak a little).
	if sum < 0.3 || sum > 1.01 {
		t.Fatalf("rank sum = %f", sum)
	}
}

func TestLITEGraphMatchesReference(t *testing.T) {
	g := testGraph()
	want := RefPageRank(g, 5, 0.85)
	cls, dep := newLITECluster(t, 4)
	cfg := DefaultConfig([]int{0, 1, 2, 3}, 2, 5)
	res, err := RunLITE(cls, dep, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("LITE-Graph ranks diverge from reference")
	}
	if res.Time <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestMsgEngineMatchesReference(t *testing.T) {
	g := testGraph()
	want := RefPageRank(g, 4, 0.85)
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 4, 1<<30)
	cfg := DefaultConfig([]int{0, 1, 2, 3}, 2, 4)
	res, err := RunMsgEngine(cls, cfg, PowerGraphParams(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("PowerGraph-sim ranks diverge from reference")
	}
}

func TestDSMGraphMatchesReference(t *testing.T) {
	g := testGraph()
	want := RefPageRank(g, 4, 0.85)
	cls, dep := newLITECluster(t, 4)
	cfg := DefaultConfig([]int{0, 1, 2, 3}, 2, 4)
	res, err := RunDSM(cls, dep, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("LITE-Graph-DSM ranks diverge from reference")
	}
}

func TestEngineOrdering(t *testing.T) {
	// The Figure 19 shape: LITE-Graph < Graph-DSM < Grappa < PowerGraph
	// in run time (LITE-Graph fastest).
	g := workload.NewPowerLawGraph(7, 20000, 200000)
	iters := 4

	cls1, dep1 := newLITECluster(t, 4)
	liteRes, err := RunLITE(cls1, dep1, DefaultConfig([]int{0, 1, 2, 3}, 4, iters), g)
	if err != nil {
		t.Fatal(err)
	}

	cls2, dep2 := newLITECluster(t, 4)
	dsmRes, err := RunDSM(cls2, dep2, DefaultConfig([]int{0, 1, 2, 3}, 4, iters), g)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := params.Default()
	cls3 := clustertest.MustNew(&pcfg, 4, 1<<30)
	pgRes, err := RunMsgEngine(cls3, DefaultConfig([]int{0, 1, 2, 3}, 4, iters), PowerGraphParams(), g)
	if err != nil {
		t.Fatal(err)
	}

	pcfg2 := params.Default()
	cls4 := clustertest.MustNew(&pcfg2, 4, 1<<30)
	grRes, err := RunMsgEngine(cls4, DefaultConfig([]int{0, 1, 2, 3}, 4, iters), GrappaParams(), g)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("LITE-Graph %v, Graph-DSM %v, Grappa %v, PowerGraph %v",
		liteRes.Time, dsmRes.Time, grRes.Time, pgRes.Time)
	if liteRes.Time >= pgRes.Time {
		t.Fatalf("LITE-Graph (%v) must beat PowerGraph (%v)", liteRes.Time, pgRes.Time)
	}
	if liteRes.Time >= dsmRes.Time {
		t.Fatalf("LITE-Graph (%v) must beat Graph-DSM (%v)", liteRes.Time, dsmRes.Time)
	}
	if grRes.Time >= pgRes.Time {
		t.Fatalf("Grappa (%v) must beat PowerGraph (%v)", grRes.Time, pgRes.Time)
	}
	if dsmRes.Time >= pgRes.Time {
		t.Fatalf("Graph-DSM (%v) must beat PowerGraph (%v)", dsmRes.Time, pgRes.Time)
	}
	ratio := float64(pgRes.Time) / float64(liteRes.Time)
	if ratio < 2 {
		t.Fatalf("PowerGraph/LITE-Graph = %.2f, want the paper's multi-x gap", ratio)
	}
}

func TestOwnedRangePartition(t *testing.T) {
	// Ranges must tile [0, n) without overlap for any node count.
	for _, n := range []int{1, 7, 100, 1001} {
		for _, parts := range []int{1, 2, 3, 8} {
			covered := 0
			prevHi := 0
			for i := 0; i < parts; i++ {
				lo, hi := ownedRange(n, parts, i)
				if lo != prevHi {
					t.Fatalf("n=%d parts=%d idx=%d: lo=%d, want %d", n, parts, i, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d: covered %d", n, parts, covered)
			}
		}
	}
}

func TestFloatSerializationRoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, 1e-300, 9e300}
	buf := floatsToBytes(in, nil)
	out := make([]float64, len(in))
	bytesToFloats(buf, out)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip [%d]: %v != %v", i, out[i], in[i])
		}
	}
}

// TestRunNamesAreDeploymentScoped: a run names its LMRs from
// deployment-scoped state (lite.Deployment.NextAppSeq), so the first
// run on every fresh deployment publishes the same names. With a
// process-global counter, the runs earlier in the process widened the
// names, and every message carrying one, by a byte per digit.
func TestRunNamesAreDeploymentScoped(t *testing.T) {
	g := testGraph()
	cfg := DefaultConfig([]int{0, 1}, 2, 1)
	for k := 0; k < 2; k++ {
		cls, dep := newLITECluster(t, 2)
		if _, err := RunLITE(cls, dep, cfg, g); err != nil {
			t.Fatal(err)
		}
		if dep.LMRSizeByName("pg1-contrib-0") == 0 {
			t.Errorf("LITE-Graph run %d on a fresh deployment published no pg1-contrib-0", k)
		}
		cls, dep = newLITECluster(t, 2)
		if _, err := RunDSM(cls, dep, cfg, g); err != nil {
			t.Fatal(err)
		}
		if dep.LMRSizeByName("dsm2-home-0") == 0 { // the run takes 1, its DSM 2
			t.Errorf("Graph-DSM run %d on a fresh deployment published no dsm2-home-0", k)
		}
	}
}
