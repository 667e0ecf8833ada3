package mapreduce

import (
	"bytes"
	"testing"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/workload"
)

// refWordCount computes the expected answer directly.
func refWordCount(input []byte) map[string]int64 {
	out := make(map[string]int64)
	for _, w := range bytes.Fields(input) {
		out[string(w)]++
	}
	return out
}

func checkCounts(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
}

func testInput(n int) []byte {
	return workload.NewCorpus(42, 300).Generate(n)
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

func TestSplitChunksCoversInput(t *testing.T) {
	input := testInput(100000)
	chunks := splitChunks(input, 8192)
	var total int64
	for i, ch := range chunks {
		if ch[1] <= 0 {
			t.Fatalf("chunk %d has length %d", i, ch[1])
		}
		total += ch[1]
		// Chunks must break at word boundaries (except the last).
		if end := ch[0] + ch[1]; end < int64(len(input)) && input[end] != ' ' {
			t.Fatalf("chunk %d ends mid-word", i)
		}
	}
	if total != int64(len(input)) {
		t.Fatalf("chunks cover %d bytes, want %d", total, len(input))
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	m := map[string]int64{"apple": 3, "pear": 1, "zebra": 99}
	got := make(map[string]int64)
	parseCounts(serializeCounts(m), got)
	checkCounts(t, got, m)
}

func TestLITEMRCorrectness(t *testing.T) {
	input := testInput(200000)
	cls, dep := newLITECluster(t, 4)
	cfg := DefaultConfig(0, []int{1, 2, 3}, 2, 4)
	cfg.ChunkSize = 16384
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
	if res.Map <= 0 || res.Reduce <= 0 || res.Merge <= 0 {
		t.Fatalf("phase times: %+v", res)
	}
}

func TestPhoenixCorrectness(t *testing.T) {
	input := testInput(150000)
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 1, 1<<30)
	mrCfg := DefaultConfig(0, []int{0}, 4, 4)
	mrCfg.ChunkSize = 16384
	res, err := RunPhoenix(cls, mrCfg, 0, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

func TestHadoopCorrectness(t *testing.T) {
	input := testInput(150000)
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 3, 1<<30)
	hCfg := DefaultHadoopConfig(0, []int{1, 2}, 2, 4)
	hCfg.ChunkSize = 16384
	res, err := RunHadoop(cls, hCfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

func TestLITEMRBeatsHadoop(t *testing.T) {
	input := testInput(400000)

	cls1, dep1 := newLITECluster(t, 3)
	liteCfg := DefaultConfig(0, []int{1, 2}, 4, 4)
	liteCfg.ChunkSize = 32768
	liteRes, err := RunLITE(cls1, dep1, liteCfg, input)
	if err != nil {
		t.Fatal(err)
	}

	cfg := params.Default()
	cls2 := clustertest.MustNew(&cfg, 3, 1<<30)
	hCfg := DefaultHadoopConfig(0, []int{1, 2}, 4, 4)
	hCfg.ChunkSize = 32768
	hadoopRes, err := RunHadoop(cls2, hCfg, input)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(hadoopRes.Total) / float64(liteRes.Total)
	if ratio < 2 {
		t.Fatalf("Hadoop/LITE-MR = %.2f (LITE %v vs Hadoop %v), want LITE clearly faster", ratio, liteRes.Total, hadoopRes.Total)
	}
}

func TestLITEMRMapReduceFasterThanPhoenix(t *testing.T) {
	// The paper's surprising result: LITE-MR's map and reduce phases
	// beat single-node Phoenix (same total threads) because the split
	// per-node index is cheaper than Phoenix's global tree, while the
	// merge phase is slower because the data is distributed.
	input := testInput(400000)

	cls1, dep1 := newLITECluster(t, 3)
	liteCfg := DefaultConfig(0, []int{1, 2}, 4, 8)
	liteCfg.ChunkSize = 32768
	liteRes, err := RunLITE(cls1, dep1, liteCfg, input)
	if err != nil {
		t.Fatal(err)
	}

	cfg := params.Default()
	cls2 := clustertest.MustNew(&cfg, 1, 1<<30)
	phxCfg := DefaultConfig(0, []int{1, 2}, 4, 8) // 2 workers x 4 threads = 8 threads
	phxCfg.ChunkSize = 32768
	phxRes, err := RunPhoenix(cls2, phxCfg, 0, input)
	if err != nil {
		t.Fatal(err)
	}
	if liteRes.Map+liteRes.Reduce >= phxRes.Map+phxRes.Reduce {
		t.Fatalf("LITE-MR map+reduce (%v) should beat Phoenix (%v)",
			liteRes.Map+liteRes.Reduce, phxRes.Map+phxRes.Reduce)
	}
	if liteRes.Merge <= phxRes.Merge {
		t.Fatalf("LITE-MR merge (%v) should be slower than Phoenix local merge (%v)",
			liteRes.Merge, phxRes.Merge)
	}
}

// TestRunNamesAreDeploymentScoped: a run names its LMRs from
// deployment-scoped state (lite.Deployment.NextAppSeq), so the first
// run on every fresh deployment publishes the same names and task
// messages, whatever ran earlier in the process.
func TestRunNamesAreDeploymentScoped(t *testing.T) {
	input := testInput(20000)
	for k := 0; k < 2; k++ {
		cls, dep := newLITECluster(t, 3)
		cfg := DefaultConfig(0, []int{1, 2}, 1, 2)
		if _, err := RunLITE(cls, dep, cfg, input); err != nil {
			t.Fatal(err)
		}
		if dep.LMRSizeByName("mr1-input") == 0 {
			t.Errorf("run %d on a fresh deployment published no mr1-input", k)
		}
	}
}
