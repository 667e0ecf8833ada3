package lite

import (
	"bytes"
	"errors"
	"testing"

	"lite/internal/simtime"
)

// After a mixed one-sided and RPC load has drained, no completion is
// stranded and no waiter record leaks: every send dispatcher has nobody
// blocked, and the only completions it holds unclaimed are those of
// signaled batches some QP still lists as in flight — lazy reclaim's,
// reaped by the next post on that QP. Every send-queue slot is
// accounted for, and no outbox holds a chain.
func TestSendCompletionsSettleAfterDrain(t *testing.T) {
	cls, dep := testDep(t, 3)
	startEchoServer(cls, dep, 1, 2)
	startEchoServer(cls, dep, 2, 2)
	var hs [2]LH // on nodes 1 and 2
	ready := false
	var readyCond simtime.Cond
	maxBlocked := 0
	cls.GoOn(0, "setup", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for k := range hs {
			h, err := mallocFilled(p, c, []int{k + 1}, 16<<10, byte(k+1))
			if err != nil {
				t.Error(err)
				return
			}
			hs[k] = h
		}
		ready = true
		readyCond.Broadcast(p.Env())
	})
	// Six threads share node 0's send CQ, each cycling through Read,
	// Write, a two-node ReadV and an RPC, staggered so their completions
	// interleave.
	const workers, rounds = 6, 24
	var wg simtime.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		cls.GoOn(0, "worker", func(p *simtime.Proc) {
			defer wg.Done(p.Env())
			for !ready {
				readyCond.Wait(p)
			}
			c := dep.Instance(0).KernelClient()
			p.Sleep(simtime.Time(w * 300))
			for r := 0; r < rounds; r++ {
				h := hs[(w+r)%2]
				off := int64(w*1024 + r*8)
				var err error
				switch (w + r) % 4 {
				case 0:
					buf := make([]byte, 64<<(r%3*3))
					err = c.Read(p, h, off%8192, buf)
				case 1:
					err = c.Write(p, h, 8192+off, []byte("settle!!"))
				case 2:
					segs := []ReadSeg{{hs[0], off, make([]byte, 8)}, {hs[0], off + 8, make([]byte, 8)}, {hs[1], off, make([]byte, 16)}}
					if err = c.ReadV(p, segs); err == nil && !bytes.Equal(segs[0].Buf, pattern(1, 8192)[off:off+8]) {
						t.Errorf("worker %d round %d: ReadV read wrong bytes", w, r)
					}
				case 3:
					var out []byte
					in := []byte{byte(w), byte(r)}
					if out, err = c.RPC(p, 1+r%2, echoFn, in, 16); err == nil && !bytes.Equal(out, in) {
						t.Errorf("worker %d round %d: echo returned %v", w, r, out)
					}
				}
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
				}
				if b := dep.Instance(0).sendDisp.Blocked(); b > maxBlocked {
					maxBlocked = b
				}
			}
		})
	}
	// Once the load is done, a chain whose first member is lost: the
	// vector fails, and the member's error completion must be claimed,
	// not left behind.
	cls.GoOn(0, "lossy", func(p *simtime.Proc) {
		wg.Wait(p)
		c := dep.Instance(0).KernelClient()
		drops := 0
		cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
			if src == 0 && dst == 1 {
				drops++
			}
			return src == 0 && dst == 1 && drops == 1
		})
		segs := []ReadSeg{{hs[0], 0, make([]byte, 8)}, {hs[0], 8, make([]byte, 8)}}
		if err := c.ReadV(p, segs); !errors.Is(err, ErrTimeout) {
			t.Errorf("ReadV over a lost first segment: err = %v, want ErrTimeout", err)
		}
		cls.Fab.SetDropHook(nil)
		// Let every completion still on the wire land.
		p.Sleep(2 * cls.Cfg.RCTimeout)
	})
	run(t, cls)
	if maxBlocked < 2 {
		t.Errorf("at most %d threads waited on node 0's send CQ at once; the load never shared it", maxBlocked)
	}
	for n := range cls.Nodes {
		inst := dep.Instance(n)
		if b := inst.sendDisp.Blocked(); b != 0 {
			t.Errorf("node %d: %d waiters still registered after the drain", n, b)
		}
		lazy := make(map[uint64]bool)
		for _, sigs := range inst.qpSig {
			for _, sig := range sigs {
				for _, id := range sig.sq.batchIDs() {
					lazy[id] = true
				}
			}
		}
		for _, id := range inst.sendDisp.Unclaimed() {
			if !lazy[id] {
				t.Errorf("node %d: completion %d is stranded: no waiter claimed it and no in-flight batch lists it", n, id)
			}
		}
	}
	if err := dep.CheckSendQueues(); err != nil {
		t.Error(err)
	}
}
