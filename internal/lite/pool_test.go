package lite

import (
	"testing"
	"time"

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
