package lite

import (
	"errors"
	"sort"
	"testing"
	"time"

	"lite/internal/simtime"
)

// holeRun drives a single-worker echo server on node 1 from two healthy
// clients (nodes 0 and 2, one call every 20 µs each, each call its own
// thread) and from a third client on node 3 that keeps 32 threads
// calling. With hole set, every write node 1 sends to node 3 from
// 300 µs on (once node 3 has bound to the function) is dropped — its
// acknowledgments of node 3's requests still get through: every reply
// to that client, and every credit, completes only at its RC timeout. It returns the healthy calls' latencies, how many of
// them failed, and whether replies toward node 3 were queued in an
// outbox at 3 ms.
func holeRun(t *testing.T, hole bool) (lat []simtime.Time, failed int, queued bool) {
	t.Helper()
	opts := DefaultOptions()
	opts.RPCTimeout = 500 * time.Microsecond
	cls, dep := testDepOpts(t, 4, opts)
	startEchoServer(cls, dep, 1, 1)
	cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
		return hole && src == 1 && dst == 3 && at >= 300*time.Microsecond && size > int64(cls.Cfg.AckBytes)
	})
	const end = 4 * time.Millisecond
	for k := 0; k < 32; k++ {
		cls.GoOn(3, "hole-client", func(p *simtime.Proc) {
			c := dep.Instance(3).KernelClient()
			for p.Now() < end {
				_, _ = c.RPC(p, 1, echoFn, []byte("hole"), 16)
				p.Sleep(400 * time.Microsecond)
			}
		})
	}
	for _, node := range []int{0, 2} {
		node := node
		cls.GoOn(node, "healthy-client", func(p *simtime.Proc) {
			c := dep.Instance(node).KernelClient()
			for p.SleepUntil(500 * time.Microsecond); p.Now() < end; p.Sleep(20 * time.Microsecond) {
				cls.GoOn(node, "call", func(q *simtime.Proc) {
					t0 := q.Now()
					if _, err := c.RPC(q, 1, echoFn, []byte("ok"), 16); err != nil {
						failed++
						return
					}
					lat = append(lat, q.Now()-t0)
				})
			}
		})
	}
	cls.GoOn(1, "sample", func(p *simtime.Proc) {
		p.SleepUntil(3 * time.Millisecond)
		for _, sig := range dep.Instance(1).qpSig[3] {
			queued = queued || sig.sq.queued() > 0
		}
	})
	run(t, cls)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat, failed, queued
}

// TestBlackHoledClientStallsNoOtherClient: a single-worker function
// that replies into one black-holed client fills that client's send
// queues within a millisecond, and every later reply toward it waits
// for an RC timeout (4 ms) to free a slot. The worker must not wait with
// them: the replies queue in the QPs' outboxes, and the other clients'
// p99 grows by at most one round trip over the same load without the
// hole.
func TestBlackHoledClientStallsNoOtherClient(t *testing.T) {
	base, failed, _ := holeRun(t, false)
	if failed != 0 || len(base) == 0 {
		t.Fatalf("without the hole: %d calls failed, %d completed", failed, len(base))
	}
	rtt := base[len(base)/2]
	p99 := func(lat []simtime.Time) simtime.Time { return lat[len(lat)*99/100] }
	holed, failed, queued := holeRun(t, true)
	if !queued {
		t.Fatal("no reply toward the black-holed client waited in an outbox; the test exercises nothing")
	}
	if failed != 0 {
		t.Fatalf("with the hole: %d healthy calls failed (%d completed): the worker waited on the hole", failed, len(holed))
	}
	if p99(holed) > p99(base)+rtt {
		t.Errorf("healthy p99 %v with the hole, %v without: more than one round trip (%v) worse", p99(holed), p99(base), rtt)
	}
}

// TestDeclareDeadFailsOutboxAtOnce: chains queued toward a crashed peer
// wait for completions only the RC timeout will produce. Declaring the
// peer dead fails them at once — the outbox is empty the moment the
// manager's view changes — and a one-sided caller queued there gets
// ErrNodeDead then, not after the timeout.
func TestDeclareDeadFailsOutboxAtOnce(t *testing.T) {
	cls, dep := testDep(t, 3)
	mgr := dep.Instance(0)
	var declaredAt, readDone simtime.Time
	var readErr error
	queued := false
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		cls.CrashNode(p, 2)
		// Fill both send queues toward the crashed node, then queue more.
		for k := 0; k < 2*qpDepth+4; k++ {
			mgr.queueNotify(p, headUpdate{tag: tagHeadUpd, client: 2, fn: funcControl, delta: ringAlign})
			p.Sleep(time.Microsecond)
		}
		cls.GoOn(0, "reader", func(q *simtime.Proc) {
			readErr = mgr.rawRead(q, 2, 0, make([]byte, 8), PriHigh)
			readDone = q.Now()
		})
		p.Sleep(10 * time.Microsecond)
		for _, sig := range mgr.qpSig[2] {
			queued = queued || sig.sq.queued() > 0
		}
		declaredAt = p.Now()
		mgr.declareDead(p, 2)
	})
	cls.GoOn(0, "check", func(p *simtime.Proc) {
		for declaredAt == 0 {
			p.Sleep(time.Microsecond)
		}
		for _, sig := range mgr.qpSig[2] {
			if sig.sq.queued() != 0 {
				t.Errorf("%d chains still queued toward the dead node", sig.sq.queued())
			}
		}
	})
	run(t, cls)
	if !queued {
		t.Fatal("nothing waited in an outbox toward the crashed node; the test exercises nothing")
	}
	if !errors.Is(readErr, ErrNodeDead) {
		t.Errorf("queued read returned %v, want ErrNodeDead", readErr)
	}
	if wait := readDone - declaredAt; wait > cls.Cfg.RCTimeout/100 {
		t.Errorf("queued read failed %v after the declaration (RC timeout %v)", wait, cls.Cfg.RCTimeout)
	}
}
