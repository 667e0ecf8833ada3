package bench

import (
	"bytes"
	"fmt"
	"time"

	"lite/internal/apps/mapreduce"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/workload"
)

func init() {
	register("chaos", "LITE-MR under a seeded fault plan: degradation and NIC failure counters", chaosRun)
}

// chaosRun executes a LITE-MR word count while a seeded fault plan
// crashes a worker mid-run, flaps a link, and drops messages for a
// while. It reports how the job degraded (wall time, result
// correctness) and what the failures cost at each layer: fabric-level
// drops from the loss window and the NIC-level RC-timeout and
// RNR-exhaustion counters that LITE's failure handling turned into
// clean errors instead of stuck QPs.
func chaosRun() (*Table, error) {
	t := &Table{
		ID:     "chaos",
		Title:  "Chaos run: worker crash + link flap + 0.2% loss during LITE-MR",
		Header: []string{"Metric", "Value"},
	}
	const seed = 0xC0FFEE
	input := workload.NewCorpus(42, 300).Generate(40000)

	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	cls, dep, err := newLITEOpts(5, opts)
	if err != nil {
		return nil, err
	}
	pl := faults.NewPlan(seed).
		CrashAt(2, 150*time.Microsecond).
		RestartAt(2, 6*time.Millisecond).
		FlapBoth(1, 4, 300*time.Microsecond, 1500*time.Microsecond).
		LossDuring(0.002, 100*time.Microsecond, 4*time.Millisecond)
	inj := faults.Attach(cls, pl)

	cfg := mapreduce.DefaultConfig(0, []int{1, 2, 3, 4}, 2, 4)
	cfg.ChunkSize = 4096
	cfg.TaskTimeout = 5 * time.Millisecond
	res, err := mapreduce.RunLITE(cls, dep, cfg, input)
	if err != nil {
		return nil, err
	}

	want := make(map[string]int64)
	for _, w := range bytes.Fields(input) {
		want[string(w)]++
	}
	correct := len(res.Counts) == len(want)
	for w, n := range want {
		if res.Counts[w] != n {
			correct = false
			break
		}
	}

	// faults.Attach enabled the cluster's observability domain; the
	// failure counters every layer recorded are read back from it.
	nicTimeouts := cls.Obs.Total("rnic.timeouts")
	nicRNR := cls.Obs.Total("rnic.rnr_exhausted")

	t.AddRow("MR wall time (ms)", fmt.Sprintf("%.2f", float64(res.Total)/1e6))
	t.AddRow("result correct", fmt.Sprintf("%v", correct))
	t.AddRow("crashes / restarts injected", fmt.Sprintf("%d / %d", inj.Crashes, inj.Restarts))
	t.AddRow("directed link cuts", fmt.Sprintf("%d", inj.Flaps))
	t.AddRow("packets dropped by loss window", fmt.Sprintf("%d", inj.Dropped()))
	t.AddRow("NIC RC timeouts (all nodes)", fmt.Sprintf("%d", nicTimeouts))
	t.AddRow("NIC RNR retries exhausted (all nodes)", fmt.Sprintf("%d", nicRNR))
	t.Note("seed 0x%X: crash node 2 @150us, restart @6ms, flap 1<->4 0.3-1.5ms, 0.2%% loss 0.1-4ms", seed)
	t.Note("heartbeat 100us interval / 3 misses; per-task timeout 5ms; job re-executes on survivors")
	if !correct {
		return t, fmt.Errorf("chaos: MR result incorrect")
	}
	return t, nil
}
