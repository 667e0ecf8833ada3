package lite

import (
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// --- which parked server thread a call goes to ---

// servedCall is one call as a pool worker saw it: the thread that ran
// it and the instant its handler began.
type servedCall struct {
	p  *simtime.Proc
	at simtime.Time
}

// serveLog serves echoFn on inst with the given number of workers; each
// handler works for d and appends its call to *log in serving order.
func serveLog(t *testing.T, inst *Instance, workers int, d time.Duration, log *[]servedCall) {
	t.Helper()
	if err := inst.ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		*log = append(*log, servedCall{p, p.Now()})
		p.Work(d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// dispatchLocal queues an empty node-local call to echoFn the way
// rpcLocal does, so a test controls its dispatch instant to the
// nanosecond and no copy cost shifts the handler's start.
func dispatchLocal(inst *Instance) {
	inst.dispatchCall(inst.funcs[echoFn], &Call{Func: echoFn, Src: inst.node.ID, local: true, pend: &pendingCall{}})
}

// TestCallGoesToNewestSpinner: with two workers inside their busy
// windows and one asleep, a call runs at once on the spinner that
// parked last, with no WakeupLatency on its path. One FIFO cond for the
// whole pool handed it to the sleeper instead, whose record (queued
// when its window lapsed) was older than either spinner's.
func TestCallGoesToNewestSpinner(t *testing.T) {
	const node = 1
	cls, dep := testDep(t, 2)
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, 3, 2*time.Microsecond, &served)
	var third simtime.Time
	cls.GoOn(node, "driver", func(p *simtime.Proc) {
		p.Sleep(20 * time.Microsecond) // every window lapses: three sleepers
		dispatchLocal(inst)
		p.Sleep(time.Microsecond) // the first is still waking: wake a second
		dispatchLocal(inst)
		p.Sleep(5 * time.Microsecond) // both are back and spinning
		third = p.Now()
		dispatchLocal(inst)
		p.Sleep(20 * time.Microsecond)
	})
	run(t, cls)
	if len(served) != 3 {
		t.Fatalf("%d calls served, want 3", len(served))
	}
	if served[0].p == served[1].p {
		t.Fatal("the first two calls ran on one worker, want two woken sleepers")
	}
	if served[2].at != third {
		t.Errorf("third call began at %v, want %v: a sleeper was woken while two workers spun", served[2].at, third)
	} else if served[2].p != served[1].p {
		t.Error("third call ran on the older spinner, want the one that parked last")
	}
}

// TestOneWorkerStaysWarm: four workers and calls 5 µs apart, inside the
// 8 µs poll window. The newest spinner takes every call, so one worker
// serves them all without a wakeup while the other three let their
// windows lapse and sleep: server-thread CPU per call is the 5 µs
// period. Handing each call to the oldest parked worker instead armed
// all four in turn, each call paid a wakeup and every worker burnt a
// whole window per call.
func TestOneWorkerStaysWarm(t *testing.T) {
	const (
		node    = 1
		workers = 4
		calls   = 200
		settle  = 10 // calls before the steady state is judged
		period  = 5 * time.Microsecond
		handler = time.Microsecond
	)
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, workers, handler, &served)
	cpu := func() int64 { return dom.Node(node).Snapshot().Counters["cpu.lite-serve"] }
	var cpu0, cpu1 int64
	var sent []simtime.Time
	cls.GoOn(node, "driver", func(p *simtime.Proc) {
		p.Sleep(20 * time.Microsecond)
		for k := 0; k < calls; k++ {
			if k == settle {
				cpu0 = cpu()
			}
			sent = append(sent, p.Now())
			dispatchLocal(inst)
			p.Sleep(period)
		}
		cpu1 = cpu()
	})
	run(t, cls)
	if len(served) != calls {
		t.Fatalf("%d calls served, want %d", len(served), calls)
	}
	threads := map[*simtime.Proc]bool{}
	woken := 0
	for k := settle; k < calls; k++ {
		threads[served[k].p] = true
		if served[k].at-sent[k] >= cls.Cfg.WakeupLatency {
			woken++
		}
	}
	perCall := time.Duration((cpu1 - cpu0) / (calls - settle))
	if len(threads) != 1 || woken != 0 || perCall > period+handler {
		t.Errorf("steady state: %d workers armed, %d of %d calls woke a sleeper, %v server CPU per call; want 1, 0 and at most %v",
			len(threads), woken, calls-settle, perCall, period+handler)
	}
}

// TestPoolWaitRecordsStayBounded: calls pop the spin cond from its
// newest end, so the record of a window that lapsed under a warm
// spinner would never be reached; it has to leave with its waiter.
// Each 20 µs cycle sends one call per worker at once, then three calls
// 5 µs apart that keep the newest re-parked worker warm while the other
// three windows lapse beneath it. Over 100 000 lapses, the pool never
// holds more wait records than workers + 1.
func TestPoolWaitRecordsStayBounded(t *testing.T) {
	const (
		node    = 1
		workers = 4
		lapses  = 100_000
		gap     = 5 * time.Microsecond
	)
	cls, dep := testDep(t, 2)
	inst := dep.Instance(node)
	if err := inst.ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		p.Work(time.Microsecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f := inst.funcs[echoFn]
	lapsed, worst := 0, 0
	sample := func() { worst = max(worst, f.spin.Waiters()+f.sleep.Waiters()) }
	cls.GoOn(node, "driver", func(p *simtime.Proc) {
		p.Sleep(20 * time.Microsecond)
		for cycle := 0; lapsed < lapses; cycle++ {
			// Every sleeper got there by a lapse since the last burst.
			if cycle > 0 && (f.spin.Waiters() != 1 || f.sleep.Waiters() != workers-1) {
				t.Errorf("cycle %d: %d spinning, %d asleep; want 1 warm spinner and %d sleepers", cycle, f.spin.Waiters(), f.sleep.Waiters(), workers-1)
				return
			}
			lapsed += f.sleep.Waiters()
			sample()
			for k := 0; k < workers; k++ {
				dispatchLocal(inst)
			}
			for k := 0; k < 3; k++ {
				p.Sleep(gap)
				sample()
				dispatchLocal(inst)
			}
			p.Sleep(gap)
		}
	})
	run(t, cls)
	if worst > workers+1 {
		t.Errorf("%d wait records queued at worst over %d lapsed windows, want at most %d", worst, lapsed, workers+1)
	}
}

// --- a request wakes its worker at arrival ---

// counter reads one node's obs counter.
func counter(dom *obs.Domain, node int, name string) int64 {
	return dom.Node(node).Snapshot().Counters[name]
}

// TestIdleRequestPaysOneWakeup: a request that lands on a server whose
// poller and workers all sleep wakes its worker at arrival
// (prewakeWorker), so the worker's wakeup runs alongside the poller's
// and the call costs exactly one WakeupLatency over the same call to a
// warm server. Waking the worker only at dispatch put the two wakeups
// in series: two WakeupLatencies.
func TestIdleRequestPaysOneWakeup(t *testing.T) {
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	startEchoServer(cls, dep, 1, 2)
	var warm, cold simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		call := func() simtime.Time {
			t0 := p.Now()
			if _, err := c.RPC(p, 1, echoFn, []byte("ping"), 64); err != nil {
				t.Error(err)
			}
			return p.Now() - t0
		}
		call()
		warm = call() // the server's poller and worker are still spinning
		p.Sleep(50 * time.Microsecond)
		cold = call()
	})
	run(t, cls)
	if want := warm + cls.Cfg.WakeupLatency; cold != want {
		t.Errorf("idle call took %v, warm %v: want warm + one wakeup = %v", cold, warm, want)
	}
	if n := counter(dom, 1, "lite.rpc.worker_prewakes"); n != 1 {
		t.Errorf("%d worker prewakes, want 1 (the idle call's)", n)
	}
}

// TestIdleControlCallPaysOneWakeup: a control call to a node whose
// every thread sleeps pays one wakeup, as a request to an application
// pool does: a system worker is woken at the request's arrival, so its
// wakeup runs alongside the poller's instead of after the dispatch.
func TestIdleControlCallPaysOneWakeup(t *testing.T) {
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	var warm, cold simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		inst := dep.Instance(0)
		bind := func(fn int) simtime.Time { // the first binding to fn
			t0 := p.Now()
			if _, err := inst.ctl(p, 1, wire{copBind}.u32(uint32(fn)), 24, PriHigh); err != nil {
				t.Error(err)
			}
			return p.Now() - t0
		}
		bind(FirstUserFunc)
		bind(FirstUserFunc + 1)        // the second still misses the NICs' QP-context caches
		warm = bind(FirstUserFunc + 2) // node 1's poller and system worker still spin
		p.Sleep(50 * time.Microsecond)
		cold = bind(FirstUserFunc + 3)
	})
	run(t, cls)
	if want := warm + cls.Cfg.WakeupLatency; cold != want {
		t.Errorf("idle control call took %v, warm %v: want warm + one wakeup = %v", cold, warm, want)
	}
	if n := counter(dom, 1, "lite.rpc.worker_prewakes"); n != 1 {
		t.Errorf("%d worker prewakes, want 1 (the idle call's)", n)
	}
}

// TestSpinningWorkerIsNotPrewoken: a request that finds a worker of its
// pool inside its busy window wakes nobody at arrival, even with the
// poller asleep; the spinner takes the call when the poller dispatches
// it.
func TestSpinningWorkerIsNotPrewoken(t *testing.T) {
	const node = 1
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, 2, time.Microsecond, &served)
	var slept0, slept1 int64
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, node, echoFn, nil, 64); err != nil { // binds the ring
			t.Error(err)
		}
		p.Sleep(50 * time.Microsecond) // pool and poller asleep
		dispatchLocal(inst)            // wakes one worker; the CQ stays quiet
		p.Sleep(4 * time.Microsecond)  // it served the call and spins
		if inst.wake.poller == pollerPolling || inst.funcs[echoFn].spin.Waiters() != 1 {
			t.Errorf("setup: poller away %v, %d spinning; want an idle poller and one spinner", inst.wake.poller != pollerPolling, inst.funcs[echoFn].spin.Waiters())
		}
		slept0 = counter(dom, node, "hostos.wait.slept")
		if _, err := c.RPC(p, node, echoFn, []byte("ping"), 64); err != nil {
			t.Error(err)
		}
		slept1 = counter(dom, node, "hostos.wait.slept")
	})
	run(t, cls)
	if len(served) != 3 || served[2].p != served[1].p {
		t.Errorf("%d calls served, want 3, the last two on the spinning worker", len(served))
	}
	if slept1 != slept0 {
		t.Errorf("the request woke %d sleepers with a worker spinning, want 0", slept1-slept0)
	}
	if n := counter(dom, node, "lite.rpc.worker_prewakes"); n != 0 {
		t.Errorf("%d worker prewakes, want 0", n)
	}
}

// TestRequestBurstWakesOneWorkerEach: k requests that land together on
// an idle server with more than k sleeping workers wake exactly k of
// them — one at the first arrival, while no other is on its way, the
// others at dispatch — and not one for the arrival and another for the
// dispatch of the same call.
func TestRequestBurstWakesOneWorkerEach(t *testing.T) {
	const (
		node    = 1
		workers = 6
	)
	for k := 1; k <= 4; k++ {
		cls, dep := testDep(t, 2)
		dom := cls.EnableObs()
		inst := dep.Instance(node)
		var served []servedCall
		serveLog(t, inst, workers, time.Microsecond, &served)
		var slept0 int64
		c := dep.Instance(0).KernelClient()
		cls.GoOn(0, "warm", func(p *simtime.Proc) {
			if _, err := c.RPC(p, node, echoFn, nil, 64); err != nil { // binds the ring
				t.Error(err)
			}
			p.Sleep(50 * time.Microsecond) // pool and poller asleep
			slept0 = counter(dom, node, "hostos.wait.slept")
			for j := 0; j < k; j++ {
				cls.GoOn(0, "caller", func(q *simtime.Proc) {
					if _, err := c.RPC(q, node, echoFn, []byte("burst"), 64); err != nil {
						t.Error(err)
					}
				})
			}
		})
		run(t, cls)
		if len(served) != k+1 {
			t.Errorf("k=%d: %d calls served, want %d", k, len(served)-1, k)
		}
		if woke := counter(dom, node, "hostos.wait.slept") - slept0; woke != int64(k) {
			t.Errorf("k=%d: the burst woke %d workers, want %d", k, woke, k)
		}
		if n := counter(dom, node, "lite.rpc.worker_prewakes"); n != 1 {
			t.Errorf("k=%d: %d workers woken at arrival, want 1", k, n)
		}
	}
}

// TestLateArrivalWakesOneWorker: a request that lands while the
// poller is already paying its wakeup wakes its worker at arrival; the
// poller then dispatches the call before that worker reaches its busy
// window, and the dispatch must leave the call to it instead of waking
// a second sleeper for the same call.
func TestLateArrivalWakesOneWorker(t *testing.T) {
	const node = 1
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, 3, time.Microsecond, &served)
	const otherFn = echoFn + 1
	var other []servedCall
	if err := inst.ServeRPC(otherFn, 3, func(p *simtime.Proc, c *Call) []byte {
		other = append(other, servedCall{p, p.Now()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c := dep.Instance(0).KernelClient()
	var sent simtime.Time
	var slept0, woke int64
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		for _, fn := range []int{echoFn, otherFn} { // bind both rings
			if _, err := c.RPC(p, node, fn, nil, 64); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(50 * time.Microsecond) // pools and poller asleep
		slept0 = counter(dom, node, "hostos.wait.slept")
		cls.GoOn(0, "first", func(q *simtime.Proc) {
			if _, err := c.RPC(q, node, otherFn, nil, 64); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(cls.Cfg.WakeupLatency / 2) // the poller is waking for the first
		sent = p.Now()
		if _, err := c.RPC(p, node, echoFn, []byte("late"), 64); err != nil {
			t.Error(err)
		}
		p.Sleep(20 * time.Microsecond)
		woke = counter(dom, node, "hostos.wait.slept") - slept0
	})
	run(t, cls)
	if len(served) != 2 || len(other) != 2 {
		t.Fatalf("%d and %d calls served, want 2 and 2", len(served), len(other))
	}
	if woke != 2 {
		t.Errorf("two requests woke %d workers, want 2", woke)
	}
	if d := served[1].at - sent; d >= 2*cls.Cfg.WakeupLatency {
		t.Errorf("the late call began %v after it was sent: it waited for a worker woken at dispatch", d)
	}
}

// TestPollingPollerPrewakesNobody: while the shared poller is polling,
// it dispatches a request within its handling cost, so the request's
// arrival wakes nobody early even though its pool sleeps: calls to
// another function keep the poller inside its busy window.
func TestPollingPollerPrewakesNobody(t *testing.T) {
	const node = 1
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, 2, time.Microsecond, &served)
	const otherFn = echoFn + 1
	if err := inst.ServeRPC(otherFn, 1, func(p *simtime.Proc, c *Call) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	c := dep.Instance(0).KernelClient()
	var bindPrewakes int64
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		if _, err := c.RPC(p, node, echoFn, nil, 64); err != nil { // binds the ring
			t.Error(err)
		}
		p.Sleep(50 * time.Microsecond) // the poller sleeps, to wake for the calls below
		for k := 0; k < 10; k++ {      // echoFn's pool falls asleep
			if _, err := c.RPC(p, node, otherFn, nil, 64); err != nil {
				t.Error(err)
			}
			if k == 0 {
				// The first call binds otherFn's ring through a control
				// call that lands with the poller and the system pool
				// asleep: the one prewake of the run.
				bindPrewakes = counter(dom, node, "lite.rpc.worker_prewakes")
			}
			p.Sleep(time.Microsecond)
		}
		if inst.wake.poller != pollerPolling || inst.funcs[echoFn].sleep.Waiters() != 2 {
			t.Errorf("setup: poller away %v, %d asleep; want a polling poller and two sleepers", inst.wake.poller != pollerPolling, inst.funcs[echoFn].sleep.Waiters())
		}
		if _, err := c.RPC(p, node, echoFn, []byte("ping"), 64); err != nil {
			t.Error(err)
		}
	})
	run(t, cls)
	if len(served) != 2 {
		t.Errorf("%d calls served, want 2", len(served))
	}
	if bindPrewakes != 1 {
		t.Errorf("binding otherFn's ring woke %d workers at arrival, want 1 (a system worker)", bindPrewakes)
	}
	if n := counter(dom, node, "lite.rpc.worker_prewakes") - bindPrewakes; n != 0 {
		t.Errorf("%d workers woken at arrival with the poller polling, want 0", n)
	}
}

// TestCrashDropsWorkerOnItsWay: a worker woken at a request's arrival
// is on its way when the node crashes. That state dies with the
// incarnation: the node restarted in the same instant releases none of
// the sleepers the crash woke, and only the thread already paying its
// wakeup finishes it.
func TestCrashDropsWorkerOnItsWay(t *testing.T) {
	const (
		node    = 1
		workers = 3
	)
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	inst := dep.Instance(node)
	var served []servedCall
	serveLog(t, inst, workers, time.Microsecond, &served)
	f := inst.funcs[echoFn]
	c := dep.Instance(0).KernelClient()
	var slept0, slept1 int64
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		if _, err := c.RPC(p, node, echoFn, nil, 64); err != nil {
			t.Error(err)
		}
		p.Sleep(50 * time.Microsecond) // pool and poller asleep
		cls.GoOn(0, "caller", func(q *simtime.Proc) {
			_, _ = c.RPC(q, node, echoFn, []byte("lost"), 64) // fails with the crash
		})
		for f.coming == 0 {
			p.Sleep(10 * time.Nanosecond)
		}
		slept0 = counter(dom, node, "hostos.wait.slept")
		cls.CrashNode(p, node)
		if f.coming != 0 {
			t.Errorf("a crashed node keeps %d workers on their way", f.coming)
		}
		cls.RestartNode(p, node)
		p.Sleep(50 * time.Microsecond)
		slept1 = counter(dom, node, "hostos.wait.slept")
		if f.coming != 0 {
			t.Errorf("the restarted node has %d workers on their way", f.coming)
		}
	})
	run(t, cls)
	if woke := slept1 - slept0; woke != 1 {
		t.Errorf("%d threads paid a wakeup across the crash, want 1 (the one on its way)", woke)
	}
}
