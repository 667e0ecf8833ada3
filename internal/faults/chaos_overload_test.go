package faults_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// overloadOutcome captures everything observable about one
// chaos-under-overload run so two same-seed runs compare field by
// field.
type overloadOutcome struct {
	counts   map[string]int64 // per-client outcome tallies, "c<node>/<status>"
	finals   map[int]bool     // per-client post-plan probe success
	execs    int64            // total handler executions
	doubles  int64            // request ids executed more than once
	end      simtime.Time
	restarts int
}

const chaosOvFn = lite.FirstUserFunc + 3

// runChaosOverload drives the fair-admission overload workload through
// a fault plan: three clients (one greedy) hammer a single-worker
// server at ~2x capacity while the server node crashes and restarts,
// a client link flaps, and a lossy window drops traffic. Every request
// carries a unique id so the server can count executions per id.
func runChaosOverload(t *testing.T, seed uint64) overloadOutcome {
	t.Helper()
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 4, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	opts.AdmissionHighWater = 8
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	const srvNode = 1
	// Executions per request id: the dedup window (and its boot-stamp
	// ambiguity escape hatch) must keep every id at <= 1 even when
	// retries cross the crash/restart.
	execSeen := make(map[uint64]int64)
	var execs, doubles int64
	restarts := 0
	if err := dep.Instance(srvNode).ServeRPC(chaosOvFn, 1, func(p *simtime.Proc, c *lite.Call) []byte {
		id := binary.LittleEndian.Uint64(c.Input)
		execSeen[id]++
		execs++
		if execSeen[id] == 2 {
			doubles++
		}
		p.Work(2 * time.Microsecond)
		return c.Input[:8]
	}); err != nil {
		t.Fatal(err)
	}
	cls.OnNodeUp(func(p *simtime.Proc, node int) {
		if node == srvNode {
			restarts++
		}
	})

	// Faults land while the workload is in full swing: the server
	// bounces once, the greedy client's link flaps, and a lossy window
	// covers the recovery.
	pl := faults.NewPlan(seed).
		CrashAt(srvNode, 500*time.Microsecond).
		RestartAt(srvNode, 1500*time.Microsecond).
		FlapBoth(3, srvNode, 2500*time.Microsecond, 2900*time.Microsecond).
		LossDuring(0.002, 2*time.Millisecond, 4*time.Millisecond)
	faults.Attach(cls, pl)

	clientNodes := []int{0, 2, 3}
	counts := make(map[string]int64)
	finals := make(map[int]bool)
	record := func(node int, status string) { counts[fmt.Sprintf("c%d/%s", node, status)]++ }
	var end simtime.Time
	for ci, node := range clientNodes {
		ci, node := ci, node
		cls.GoOn(node, "chaos-client", func(p *simtime.Proc) {
			c := dep.Instance(node).KernelClient()
			// The greedy client (node 3) issues at ~4x the rate of the
			// others; the aggregate runs ~2x the 0.5 req/us capacity.
			gap := 8 * time.Microsecond
			if node == 3 {
				gap = 2 * time.Microsecond
			}
			for k := 0; p.Now() < 6*time.Millisecond; k++ {
				in := make([]byte, 16)
				binary.LittleEndian.PutUint64(in, uint64(ci)<<32|uint64(k))
				_, err := c.RPCRetry(p, srvNode, chaosOvFn, in, 64)
				switch {
				case err == nil:
					record(node, "ok")
				case errors.Is(err, lite.ErrMaybeExecuted):
					record(node, "maybe")
				case errors.Is(err, lite.ErrTimeout):
					record(node, "timeout")
				case errors.Is(err, lite.ErrOverloaded):
					record(node, "overload")
				default:
					record(node, "other")
				}
				p.Sleep(gap)
			}
			// The plan is over: one retried probe per client must get
			// through, or a client has been permanently starved.
			in := make([]byte, 16)
			binary.LittleEndian.PutUint64(in, uint64(ci)<<32|uint64(1<<20))
			_, err := c.RPCRetry(p, srvNode, chaosOvFn, in, 64)
			finals[node] = err == nil
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dep.CheckSendQueues(); err != nil {
		t.Errorf("seed %d: send queues unsettled after the run: %v", seed, err)
	}
	return overloadOutcome{counts: counts, finals: finals, execs: execs,
		doubles: doubles, end: end, restarts: restarts}
}

// TestChaosUnderOverload runs the fair-admission overload workload
// through a crash/flap/loss plan and checks the safety and liveness
// contracts hold at once: no request id ever executes twice (retries
// that cross the restart surface ErrMaybeExecuted instead), no client
// is permanently starved after the faults clear, every send-queue slot
// is accounted for once the run is over, and the whole run — faults,
// sheds, retries and all — replays bit for bit per seed. It sweeps
// seeds 21–40: the seed moves the loss pattern, and a single-worker
// server replying into a lossy client is exactly what used to park
// that worker on a full send queue for an RC timeout.
func TestChaosUnderOverload(t *testing.T) {
	for seed := uint64(21); seed <= 40; seed++ {
		a := runChaosOverload(t, seed)
		if a.doubles != 0 {
			t.Fatalf("seed %d: %d request ids executed more than once (counts %v)", seed, a.doubles, a.counts)
		}
		if a.restarts != 1 {
			t.Fatalf("seed %d: server restarted %d times, want 1", seed, a.restarts)
		}
		if a.execs == 0 {
			t.Fatalf("seed %d: no handler executions at all: workload never reached the server", seed)
		}
		for _, node := range []int{0, 2, 3} {
			ok := a.counts[fmt.Sprintf("c%d/ok", node)]
			if ok == 0 {
				t.Fatalf("seed %d: client %d finished no request at all (counts %v)", seed, node, a.counts)
			}
			if !a.finals[node] {
				t.Fatalf("seed %d: client %d still cannot complete a call after the fault plan: starved", seed, node)
			}
		}
		b := runChaosOverload(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: same-seed chaos runs diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}
