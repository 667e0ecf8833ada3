package graph

import (
	"testing"

	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/workload"
)

func TestSingleNodeEngines(t *testing.T) {
	g := workload.NewPowerLawGraph(1, 500, 4000)
	want := RefPageRank(g, 3, 0.85)

	cls, dep := newLITECluster(t, 1)
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0}, 2, 3), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("single-node LITE-Graph diverges")
	}

	pcfg := params.Default()
	cls2 := clustertest.MustNew(&pcfg, 1, 1<<30)
	res2, err := RunMsgEngine(cls2, DefaultConfig([]int{0}, 2, 3), PowerGraphParams(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res2.Ranks, want, 1e-12) {
		t.Fatal("single-node msg engine diverges")
	}
}

func TestMoreNodesThanVertices(t *testing.T) {
	// Empty partitions (nodes owning no vertices) must not wedge the
	// barriers or the exchange.
	g := workload.NewPowerLawGraph(2, 3, 6)
	want := RefPageRank(g, 2, 0.85)
	cls, dep := newLITECluster(t, 5)
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0, 1, 2, 3, 4}, 1, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("tiny graph on many nodes diverges")
	}
}

func TestZeroIterations(t *testing.T) {
	g := workload.NewPowerLawGraph(3, 100, 500)
	cls, dep := newLITECluster(t, 2)
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0, 1}, 1, 0), g)
	if err != nil {
		t.Fatal(err)
	}
	// Zero iterations: everyone keeps the uniform initial rank.
	for v, r := range res.Ranks {
		if r != 1.0/float64(g.NumVertices) {
			t.Fatalf("rank[%d] = %g after 0 iterations", v, r)
		}
	}
}

func TestDeltaCachingSkipsUnchangedPartitions(t *testing.T) {
	// A node that owns no vertices never bumps its contribution data,
	// so peers skip its bulk fetch after the first check — count the
	// fetches via the version mechanism by running a graph where one
	// partition is empty and confirming the run stays correct.
	g := workload.NewPowerLawGraph(4, 10, 40)
	want := RefPageRank(g, 4, 0.85)
	cls, dep := newLITECluster(t, 4) // 10 vertices over 4 nodes: last may be small
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0, 1, 2, 3}, 1, 4), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("delta-cached run diverges")
	}
}

func TestPartitionHealsBeforeRun(t *testing.T) {
	// A healed partition must leave no residue in the fabric: a full
	// LITE-Graph run across the former partition boundary converges
	// exactly as if the cut never happened.
	g := workload.NewPowerLawGraph(5, 200, 1500)
	want := RefPageRank(g, 3, 0.85)
	cls, dep := newLITECluster(t, 4)
	cut := func(set func(src, dst int)) {
		for x := 0; x < 2; x++ {
			for y := 2; y < 4; y++ {
				set(x, y)
				set(y, x)
			}
		}
	}
	cut(cls.Fab.SetLinkDown)
	if cls.Fab.Reachable(0, 2) || cls.Fab.Reachable(3, 1) {
		t.Fatal("partition not in effect")
	}
	cut(cls.Fab.SetLinkUp)
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0, 1, 2, 3}, 2, 3), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("run after healed partition diverges")
	}
}

func TestNodeDownBlocksThenHeals(t *testing.T) {
	// SetNodeDown isolates one node in both directions; SetNodeUp fully
	// restores it for a subsequent run.
	g := workload.NewPowerLawGraph(6, 100, 700)
	want := RefPageRank(g, 2, 0.85)
	cls, dep := newLITECluster(t, 3)
	cls.Fab.SetNodeDown(1)
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
		if cls.Fab.Reachable(pair[0], pair[1]) {
			t.Fatalf("downed node still reachable via %v", pair)
		}
	}
	cls.Fab.SetNodeUp(1)
	res, err := RunLITE(cls, dep, DefaultConfig([]int{0, 1, 2}, 1, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	if !ranksClose(res.Ranks, want, 1e-12) {
		t.Fatal("run after node revival diverges")
	}
}
