package lite

import (
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestIdleKeepaliveIsCheap: on an idle deployment a keepalive is the
// only thing that happens to a probed node, so what that node is charged
// per keepalive is the whole price of failure detection. The poller
// answers the probe itself and goes back to sleep: one wakeup and one
// CQE's handling, with no system worker woken to build the reply and no
// busy window burned after it (a system-worker answer costs ~18 µs).
func TestIdleKeepaliveIsCheap(t *testing.T) {
	const intervals = 100
	opts := heartbeatOptions()
	cls, dep := testDepOpts(t, 3, opts)
	dom := cls.EnableObs()
	var cpu simtime.Time
	cls.GoOn(0, "clock", func(p *simtime.Proc) {
		// Boot ends with every daemon's first busy window; the first
		// probe goes out one interval in.
		p.Sleep(opts.HeartbeatInterval / 2)
		cpu0 := cls.Nodes[1].CPU.Busy()
		p.Sleep(intervals * opts.HeartbeatInterval)
		cpu = cls.Nodes[1].CPU.Busy() - cpu0
	})
	run(t, cls)
	pings := dom.Node(1).Snapshot().Counters["lite.heartbeat.answered"]
	if pings < intervals*9/10 {
		t.Fatalf("node 1 answered %d keepalives in %d intervals", pings, intervals)
	}
	if per := cpu / simtime.Time(pings); per > 2*time.Microsecond {
		t.Errorf("probed idle node charged %v per keepalive (%v over %d), want <= 2µs", per, cpu, pings)
	}
	if n := dom.Total("lite.heartbeat.misses"); n != 0 {
		t.Errorf("%d keepalives missed on an idle deployment", n)
	}
	if dep.memb.epoch != 0 {
		t.Errorf("membership epoch moved to %d on an idle deployment", dep.memb.epoch)
	}
}

// TestKeepaliveWithTrafficKeepsBusyWindow: the poller skips its busy
// window only when the batch that woke it holds keepalives alone. A
// keepalive that lands in the same batch as an application request is
// ordinary traffic: the window opens exactly as it would without the
// probe.
func TestKeepaliveWithTrafficKeepsBusyWindow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		request bool
	}{
		{"keepalive alone", false},
		{"keepalive with a request", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cls, dep := testDepOpts(t, 3, DefaultOptions())
			dom := cls.EnableObs()
			startEchoServer(cls, dep, 2, 1)
			srv := dep.Instance(2)
			var cpu simtime.Time
			var coalesced int64
			cls.GoOn(0, "driver", func(p *simtime.Proc) {
				c := dep.Instance(0).KernelClient()
				if _, err := c.RPC(p, 2, echoFn, []byte("warm"), 32); err != nil {
					t.Errorf("warm-up: %v", err)
					return
				}
				// Let every thread on node 2 fall asleep.
				p.Sleep(100 * time.Microsecond)
				cpu0, co0 := srv.PollerCPU, dom.Node(2).Snapshot().Counters["lite.poller.coalesced"]
				if tc.request {
					cls.GoOn(0, "request", func(q *simtime.Proc) {
						if _, err := c.RPC(q, 2, echoFn, []byte("req"), 32); err != nil {
							t.Errorf("request: %v", err)
						}
					})
				}
				if _, err := dep.Instance(0).ctlPing(p, 2); err != nil {
					t.Errorf("ping: %v", err)
					return
				}
				p.Sleep(50 * time.Microsecond)
				cpu = srv.PollerCPU - cpu0
				coalesced = dom.Node(2).Snapshot().Counters["lite.poller.coalesced"] - co0
			})
			run(t, cls)
			window := cls.Cfg.AdaptivePollWindow
			if tc.request {
				if coalesced != 1 {
					t.Fatalf("request and keepalive drained in %d extra sweeps, want the same batch", coalesced)
				}
				if cpu < window {
					t.Errorf("poller charged %v after a mixed batch, want its %v busy window", cpu, window)
				}
				return
			}
			if cpu >= window || cpu > cls.Cfg.WakeupLatency+pollerHandleCost {
				t.Errorf("poller charged %v after a keepalive alone, want one wakeup and one CQE (%v)", cpu, cls.Cfg.WakeupLatency+pollerHandleCost)
			}
		})
	}
}

// TestStalledNotifierCausesNoFalseDeath: keepalive replies go out
// through the header-update thread, which serves every peer in turn and
// can park in a send-queue reap (reapOldest → WaitQuiet) toward a
// crashed peer until that peer's RC timeout, 4 ms — over three
// 100 µs/300 µs heartbeat periods. The probed node must keep answering
// while its notifier is stuck: only the crashed node is declared dead.
func TestStalledNotifierCausesNoFalseDeath(t *testing.T) {
	opts := heartbeatOptions()
	cls, dep := testDepOpts(t, 3, opts)
	dom := cls.EnableObs()
	srv := dep.Instance(1)
	stalled := false
	cls.GoOn(1, "stall", func(p *simtime.Proc) {
		p.Sleep(500 * time.Microsecond)
		cls.CrashNode(p, 2)
		// One notification per post toward the dead node, until both of
		// its QPs' send queues are exhausted and the next poster parks
		// on a completion that only the RC timeout will produce.
		for k := 0; k < 2*qpDepth+4; k++ {
			srv.queueNotify(p, headUpdate{kind: updCredit, client: 2, fn: funcControl, delta: ringAlign})
			p.Sleep(time.Microsecond)
		}
		p.Sleep(time.Millisecond)
		stalled = srv.notifying
		p.Sleep(5 * time.Millisecond)
	})
	run(t, cls)
	if !stalled {
		t.Fatal("the header-update thread never stalled toward the crashed node; the test exercises nothing")
	}
	m := &dep.memb
	if !m.dead[2] || m.dead[1] {
		t.Errorf("dead set %v, want exactly node 2", m.deadList())
	}
	if n := dom.Total("lite.membership.deaths"); n != 1 {
		t.Errorf("%d deaths declared, want 1 (the crashed node)", n)
	}
	if n := dom.Total("lite.membership.revivals"); n != 0 {
		t.Errorf("%d revivals: a live node was declared dead and came back", n)
	}
	if n := dom.Total("lite.heartbeat.misses"); n != int64(opts.HeartbeatMiss) {
		t.Errorf("%d keepalives missed, want the crashed node's %d", n, opts.HeartbeatMiss)
	}
}
