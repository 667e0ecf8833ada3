package faults_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/apps/mapreduce"
	"lite/internal/clustertest"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/workload"
)

// RandomPlan must be a pure function of its inputs: the same seed
// yields the same schedule, a different seed a different one.
func TestRandomPlanDeterministic(t *testing.T) {
	a := faults.RandomPlan(7, 5, 20*time.Millisecond)
	b := faults.RandomPlan(7, 5, 20*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a.Events, b.Events)
	}
	c := faults.RandomPlan(8, 5, 20*time.Millisecond)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	for _, ev := range a.Events {
		if ev.Kind == faults.Crash && ev.Node == 0 {
			t.Fatal("RandomPlan crashed node 0")
		}
	}
}

// chaosOutcome captures everything observable about one chaos run, so
// two runs of the same seed can be compared field by field.
type chaosOutcome struct {
	end      simtime.Time
	counts   map[string]int64
	log      string
	dropped  int64
	crashes  int
	restarts int
}

// runChaos executes the full chaos scenario once: a 5-node cluster with
// heartbeats on, a kvstore on nodes {1,2,3} with clients on 0 and 4,
// and a LITE-MR word count across workers {1,2,3,4} — while a seeded
// plan crashes node 2 mid-run, flaps two links, and opens a lossy
// window. It returns only when both applications have terminated.
func runChaos(t *testing.T, seed uint64) chaosOutcome {
	t.Helper()
	input := workload.NewCorpus(42, 300).Generate(40000)
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 5, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Timed to land while LITE-MR is actually running: the crash hits
	// mid map phase, the first flap separates the master from worker 3
	// long enough to be suspected, the second flaps two workers, and
	// the loss window covers the re-execution.
	pl := faults.NewPlan(seed).
		CrashAt(2, 150*time.Microsecond).
		RestartAt(2, 8*time.Millisecond).
		FlapBoth(0, 3, 300*time.Microsecond, 2500*time.Microsecond).
		FlapBoth(1, 4, 3*time.Millisecond, 5*time.Millisecond).
		LossDuring(0.002, 100*time.Microsecond, 6*time.Millisecond)
	inj := faults.Attach(cls, pl)

	kv, err := kvstore.Start(cls, dep, []int{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	clientNodes := []int{0, 4}
	logs := make([][]string, len(clientNodes))
	for ci, node := range clientNodes {
		ci, node := ci, node
		cls.GoOn(node, "kv-client", func(p *simtime.Proc) {
			k := kv.NewClient(node)
			rec := func(format string, args ...any) {
				logs[ci] = append(logs[ci],
					fmt.Sprintf("%v c%d ", p.Now(), node)+fmt.Sprintf(format, args...))
			}
			keys := make([]string, 4)
			for i := range keys {
				keys[i] = fmt.Sprintf("c%d-key-%d", node, i)
			}
			// Chaos phase: keep writing and reading through the faults,
			// recording every outcome. Lost keys (crashed shard) and
			// transient errors are legal; hangs are not.
			for round := 0; p.Now() < 25*time.Millisecond; round++ {
				for _, key := range keys {
					val := []byte(fmt.Sprintf("%s-r%d", key, round))
					if err := k.Put(p, key, val); err != nil {
						rec("put %s: %v", key, err)
						continue
					}
					got, err := k.Get(p, key)
					switch {
					case err == kvstore.ErrNotFound:
						rec("get %s: lost", key)
					case err != nil:
						rec("get %s: %v", key, err)
					case !bytes.Equal(got, val):
						// A membership change between the put and the
						// get can re-home the key onto a server still
						// holding an older incarnation.
						rec("get %s: stale", key)
					}
				}
				p.Sleep(500 * time.Microsecond)
			}
			// The plan is exhausted; wait for the membership view to
			// settle, then every key must be writable and readable.
			lc := dep.Instance(node).KernelClient()
			deadline := p.Now() + 30*time.Millisecond
			for _, s := range []int{1, 2, 3} {
				for lc.NodeDead(s) {
					if p.Now() > deadline {
						t.Errorf("client %d: server %d still dead after the plan ended", node, s)
						return
					}
					p.Sleep(200 * time.Microsecond)
				}
			}
			for _, key := range keys {
				want := []byte(key + "-final")
				if err := k.Put(p, key, want); err != nil {
					t.Errorf("client %d: final put %s: %v", node, key, err)
					continue
				}
				got, err := k.Get(p, key)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("client %d: final get %s = %q, %v", node, key, got, err)
				}
			}
			rec("done")
		})
	}

	mcfg := mapreduce.DefaultConfig(0, []int{1, 2, 3, 4}, 2, 4)
	mcfg.ChunkSize = 4096
	mcfg.TaskTimeout = 5 * time.Millisecond
	res, err := mapreduce.RunLITE(cls, dep, mcfg, input)
	if err != nil {
		t.Fatalf("LITE-MR under chaos: %v", err)
	}

	want := refWordCount(input)
	if len(res.Counts) != len(want) {
		t.Fatalf("MR counts: %d distinct words, want %d", len(res.Counts), len(want))
	}
	for w, n := range want {
		if res.Counts[w] != n {
			t.Fatalf("MR count[%q] = %d, want %d", w, res.Counts[w], n)
		}
	}
	if inj.Crashes != 1 || inj.Restarts != 1 {
		t.Fatalf("injector replayed %d crashes / %d restarts, want 1 / 1", inj.Crashes, inj.Restarts)
	}

	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return chaosOutcome{
		end:      cls.Env.Now(),
		counts:   res.Counts,
		log:      strings.Join(all, "\n"),
		dropped:  inj.Dropped(),
		crashes:  inj.Crashes,
		restarts: inj.Restarts,
	}
}

func refWordCount(input []byte) map[string]int64 {
	counts := make(map[string]int64)
	for _, w := range bytes.Fields(input) {
		counts[string(w)]++
	}
	return counts
}

// The capstone: a seeded fault plan crashes a node that serves both a
// kvstore shard and an MR worker, flaps two links, and drops messages
// for a while — and both applications still terminate with correct
// results. Running the same seed twice produces the identical
// timeline: same end time, same counts, same client logs, same number
// of dropped messages.
func TestChaosRunIsCorrectAndDeterministic(t *testing.T) {
	first := runChaos(t, 0xC0FFEE)
	second := runChaos(t, 0xC0FFEE)

	if first.end != second.end {
		t.Errorf("end times differ across identical seeds: %v vs %v", first.end, second.end)
	}
	if !reflect.DeepEqual(first.counts, second.counts) {
		t.Error("MR counts differ across identical seeds")
	}
	if first.log != second.log {
		t.Errorf("client logs differ across identical seeds:\n--- first\n%s\n--- second\n%s",
			first.log, second.log)
	}
	if first.dropped != second.dropped {
		t.Errorf("drop counts differ across identical seeds: %d vs %d", first.dropped, second.dropped)
	}
	if first.dropped == 0 {
		t.Error("loss window dropped nothing; chaos run did not exercise message loss")
	}
}
