package mapreduce

import (
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestSingleWorkerLITEMR(t *testing.T) {
	input := testInput(60000)
	cls, dep := newLITECluster(t, 2)
	cfg := DefaultConfig(0, []int{1}, 1, 2)
	cfg.ChunkSize = 8192
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

func TestMasterAsWorker(t *testing.T) {
	// The master node can also serve as a worker.
	input := testInput(60000)
	cls, dep := newLITECluster(t, 2)
	cfg := DefaultConfig(0, []int{0, 1}, 2, 3)
	cfg.ChunkSize = 8192
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

func TestTinyInput(t *testing.T) {
	input := []byte("a b a")
	cls, dep := newLITECluster(t, 3)
	cfg := DefaultConfig(0, []int{1, 2}, 2, 4)
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["a"] != 2 || res.Counts["b"] != 1 {
		t.Fatalf("counts = %v", res.Counts)
	}
}

func TestMoreReducersThanWords(t *testing.T) {
	input := []byte("x y")
	cls, dep := newLITECluster(t, 2)
	cfg := DefaultConfig(0, []int{1}, 1, 16)
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

func TestPhoenixSingleThread(t *testing.T) {
	input := testInput(30000)
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 1, 1<<30)
	cfg := DefaultConfig(0, []int{0}, 1, 2)
	cfg.ChunkSize = 8192
	res, err := RunPhoenix(cls, cfg, 0, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

// newFaultyLITECluster boots LITE with the failure detector on, for
// tests that kill nodes mid-run.
func newFaultyLITECluster(t *testing.T, n int) (*cluster.Cluster, *lite.Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

// A worker node that drops off the fabric mid-job must not sink the
// run: the master re-executes on the survivors and the counts match a
// clean run exactly.
func TestLITEMRSurvivesWorkerNodeDown(t *testing.T) {
	input := testInput(60000)
	cls, dep := newFaultyLITECluster(t, 4)
	cfg := DefaultConfig(0, []int{1, 2, 3}, 2, 4)
	cfg.ChunkSize = 4096
	cfg.TaskTimeout = 5 * time.Millisecond
	cls.GoDaemonOn(0, "fault", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		cls.Fab.SetNodeDown(2)
	})
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}

// A transient symmetric partition separating the master from one
// worker heals mid-run; the job must ride it out (via retries or by
// dropping the suspected worker) and still produce exact counts.
func TestLITEMRRidesOutPartitionFlap(t *testing.T) {
	input := testInput(40000)
	cls, dep := newFaultyLITECluster(t, 4)
	cfg := DefaultConfig(0, []int{1, 2, 3}, 2, 4)
	cfg.ChunkSize = 4096
	cfg.TaskTimeout = 5 * time.Millisecond
	cls.GoDaemonOn(0, "flap", func(p *simtime.Proc) {
		p.Sleep(100 * time.Microsecond)
		for x := 0; x < 3; x++ {
			cls.Fab.SetLinkDown(x, 3)
			cls.Fab.SetLinkDown(3, x)
		}
		p.Sleep(4 * time.Millisecond)
		for x := 0; x < 3; x++ {
			cls.Fab.SetLinkUp(x, 3)
			cls.Fab.SetLinkUp(3, x)
		}
	})
	res, err := RunLITE(cls, dep, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.Counts, refWordCount(input))
}
