package lite

import (
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestSameInstantRestartEndsTheOldIncarnation: a crash and a restart in
// the same virtual instant leave node 1 with one poller, its four
// system workers and one pool of server threads. The crashed
// incarnation's threads, woken by the crash, see that their incarnation
// has ended and exit instead of running on beside their successors.
// The pollers are counted by their sleeps: a user-level call from node
// 1 wakes every parked poller, and each sleeps again once the call is
// done.
func TestSameInstantRestartEndsTheOldIncarnation(t *testing.T) {
	const (
		node    = 1
		workers = 3
	)
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served, peer []servedCall
	serveLog(t, inst, workers, time.Microsecond, &served)
	serveLog(t, dep.Instance(0), 1, time.Microsecond, &peer)
	f, sys := inst.funcs[echoFn], inst.funcs[funcControl]
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond) // every thread of node 1 asleep
		cls.CrashNode(p, node)
		cls.RestartNode(p, node)
		p.Sleep(200 * time.Microsecond) // the rejoin settles
		if n := f.spin.Waiters() + f.sleep.Waiters(); n != workers {
			t.Errorf("%d server threads parked on node %d, want the pool's %d", n, node, workers)
		}
		if n := sys.spin.Waiters() + sys.sleep.Waiters(); n != systemWorkers {
			t.Errorf("%d system workers parked on node %d, want %d", n, node, systemWorkers)
		}
		sleeps0 := counter(dom, node, "lite.poller.sleeps")
		cls.GoOn(node, "user", func(q *simtime.Proc) {
			if _, err := inst.UserClient().RPC(q, 0, echoFn, nil, 64); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(100 * time.Microsecond)
		if n := counter(dom, node, "lite.poller.sleeps") - sleeps0; n != 1 {
			t.Errorf("%d pollers slept after a user-level call on node %d, want 1", n, node)
		}
	})
	run(t, cls)
}

// TestCrashedThreadsLeaveWithoutAWakeup: the crash wakes every sleeping
// server thread, system worker and the poller of the node so that they
// exit, and none of them pays a wakeup on the way out: the node is
// down, so nothing is left for them to run. hostos counts the server
// threads' and system workers' wakeups; the poller charges its own.
func TestCrashedThreadsLeaveWithoutAWakeup(t *testing.T) {
	const (
		node    = 1
		workers = 3
	)
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, workers, time.Microsecond, &served)
	f, sys := inst.funcs[echoFn], inst.funcs[funcControl]
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond) // every thread of node 1 asleep
		if n := f.sleep.Waiters(); n != workers {
			t.Fatalf("%d server threads asleep on node %d, want %d", n, node, workers)
		}
		kinds := []string{"cpu.lite-sys", "cpu.lite-poller"}
		cpu0 := make([]int64, len(kinds))
		for k, kind := range kinds {
			cpu0[k] = counter(dom, node, kind)
		}
		slept0 := counter(dom, node, "hostos.wait.slept")
		cls.CrashNode(p, node)
		p.Sleep(50 * time.Microsecond)
		if n := f.spin.Waiters() + f.sleep.Waiters() + sys.spin.Waiters() + sys.sleep.Waiters(); n != 0 {
			t.Errorf("%d threads still parked on crashed node %d", n, node)
		}
		if n := counter(dom, node, "hostos.wait.slept") - slept0; n != 0 {
			t.Errorf("%d threads paid a wakeup leaving crashed node %d, want 0", n, node)
		}
		for k, kind := range kinds {
			if d := counter(dom, node, kind) - cpu0[k]; d != 0 {
				t.Errorf("%s grew by %d ns on crashed node %d, want 0", kind, d, node)
			}
		}
	})
	run(t, cls)
}
