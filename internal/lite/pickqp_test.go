package lite

import (
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/params"
	"lite/internal/simtime"
)

// testDepQPs is testDep with an explicit K (QPs per node pair).
func testDepQPs(t *testing.T, n, k int) (*cluster.Cluster, *Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, n, 1<<30)
	opts := DefaultOptions()
	opts.QPsPerPair = k
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

// Under QoSHWSep, pickQP must keep the two priority classes on
// disjoint QP ranges: high priority on [0, split), low priority on
// [split, n). The priority sequence is drawn from a seeded PRNG so the
// interleaving is arbitrary but reproducible.
func TestPickQPHWSepPartition(t *testing.T) {
	cls, dep := testDepQPs(t, 2, 4)
	dep.SetQoSMode(QoSHWSep)
	inst := dep.Instance(0)
	n := len(inst.qps[1])
	if n != 4 {
		t.Fatalf("QPs to node 1 = %d, want 4", n)
	}
	lo, hi := inst.qos.qpRange(PriHigh, n)
	if lo != 0 || hi != 3 {
		t.Fatalf("high range = [%d,%d), want [0,3)", lo, hi)
	}
	lo, hi = inst.qos.qpRange(PriLow, n)
	if lo != 3 || hi != 4 {
		t.Fatalf("low range = [%d,%d), want [3,4)", lo, hi)
	}
	split := 3
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	cls.GoOn(0, "picker", func(p *simtime.Proc) {
		for i := 0; i < 400; i++ {
			pri := PriHigh
			if next()%2 == 0 {
				pri = PriLow
			}
			_, k, release := inst.pickQP(p, 1, pri)
			release()
			if pri == PriHigh && k >= split {
				t.Fatalf("high-priority pick landed on reserved low QP %d", k)
			}
			if pri == PriLow && k < split {
				t.Fatalf("low-priority pick landed on reserved high QP %d", k)
			}
		}
	})
	run(t, cls)
}

// pickQP round-robins over the permitted range even when several
// processes pick concurrently: the shared cursor hands out every index
// equally often.
func TestPickQPRoundRobinAcrossConcurrentSenders(t *testing.T) {
	cls, dep := testDepQPs(t, 2, 4)
	inst := dep.Instance(0)
	n := len(inst.qps[1])
	counts := make([]int, n)
	const procs, picks = 4, 100
	for w := 0; w < procs; w++ {
		w := w
		cls.GoOn(0, "picker", func(p *simtime.Proc) {
			// Distinct start offsets so the processes genuinely
			// interleave instead of running back to back.
			p.Sleep(simtime.Time(w * 50))
			for i := 0; i < picks; i++ {
				_, k, release := inst.pickQP(p, 1, PriHigh)
				counts[k]++
				release()
				p.Sleep(simtime.Time(100 + w))
			}
		})
	}
	run(t, cls)
	want := procs * picks / n
	for k, c := range counts {
		if c != want {
			t.Errorf("QP %d picked %d times, want %d (counts %v)", k, c, want, counts)
		}
	}
}

// Every QP slot taken by pickQP during normal RPC traffic must come
// back: after a burst of calls completes, the outstanding-op
// semaphores are all back to full capacity once in-flight signaled
// batches are reaped.
func TestPickQPSlotsRecycled(t *testing.T) {
	cls, dep := testDep(t, 2)
	inst := dep.Instance(1)
	_ = inst.RegisterRPC(FirstUserFunc)
	cls.GoDaemonOn(1, "echo", func(p *simtime.Proc) {
		c := inst.KernelClient()
		call, err := c.RecvRPC(p, FirstUserFunc)
		if err != nil {
			return
		}
		for {
			call, err = c.ReplyRecvRPC(p, call, []byte("ok"), FirstUserFunc)
			if err != nil {
				return
			}
		}
	})
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for i := 0; i < 64; i++ {
			if _, err := c.RPC(p, 1, FirstUserFunc, []byte("ping"), 16); err != nil {
				t.Errorf("rpc %d: %v", i, err)
				return
			}
		}
	})
	run(t, cls)
	for node, slots := range dep.Instance(0).qpSlots {
		for k, s := range slots {
			held := qpDepth - s.Available()
			inflight := 0
			sig := dep.Instance(0).qpSig[node][k]
			for _, b := range sig.inflight {
				inflight += len(b.releases)
			}
			if held != len(sig.pending)+inflight {
				t.Errorf("QP %d->%d[%d]: %d slots held, %d accounted (pending %d, inflight %d)",
					0, node, k, held, len(sig.pending)+inflight, len(sig.pending), inflight)
			}
		}
	}
}

// A burst of more simultaneous posts than the send queues hold, with
// nothing posted after it: the senders that found every slot taken park
// on the slot semaphore while the holders are still posting, and the
// holders' slots are reclaimed lazily — by the next poster. When there
// is no next poster, the last holder to leave must reap, or the parked
// senders wait forever (the run ends in a simtime deadlock).
func TestSendQueueBurstLeavesNobodyParked(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 1, 2)
	const burst = 4 * 2 * qpDepth // four times what the two shared QPs hold
	done := 0
	for k := 0; k <= burst; k++ {
		k := k
		cls.GoOn(0, "burst", func(p *simtime.Proc) {
			if k > 0 { // call 0 negotiates the binding ahead of the burst
				p.SleepUntil(100 * time.Microsecond)
			}
			if _, err := dep.Instance(0).KernelClient().RPC(p, 1, echoFn, []byte("burst"), 16); err != nil {
				t.Errorf("call %d: %v", k, err)
			}
			done++
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatalf("%d of %d calls done: %v", done, burst+1, err)
	}
}
