package simtime

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var end Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		p.Sleep(3 * time.Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 8*time.Microsecond {
		t.Fatalf("end = %v, want 8µs", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var order []string
		for _, spec := range []struct {
			name string
			d    Time
		}{{"a", 3 * time.Microsecond}, {"b", 1 * time.Microsecond}, {"c", 2 * time.Microsecond}} {
			spec := spec
			e.Go(spec.name, func(p *Proc) {
				p.Sleep(spec.d)
				order = append(order, spec.name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	if len(first) != 3 || first[0] != "b" || first[1] != "c" || first[2] != "a" {
		t.Fatalf("order = %v, want [b c a]", first)
	}
	for i := 0; i < 20; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d nondeterministic: %v vs %v", i, first, again)
			}
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Microsecond)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending spawn order", order)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	var c Cond
	e.Go("stuck", func(p *Proc) {
		c.Wait(p)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestDaemonDoesNotKeepSimulationAlive(t *testing.T) {
	e := NewEnv()
	e.GoDaemon("poller", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	e.Go("main", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10*time.Microsecond {
		t.Fatalf("now = %v, want 10µs", e.Now())
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	e := NewEnv()
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.env.Go("child", func(q *Proc) {
			q.Sleep(time.Microsecond)
			childRan = true
		})
		p.Sleep(5 * time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestSetLimitStopsRun(t *testing.T) {
	e := NewEnv()
	e.SetLimit(5 * time.Microsecond)
	progress := 0
	e.Go("long", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond)
			progress++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if progress < 4 || progress > 5 {
		t.Fatalf("progress = %d, want ~5", progress)
	}
}

func TestWorkChargesCPU(t *testing.T) {
	e := NewEnv()
	acct := &CPUAccount{}
	e.Go("worker", func(p *Proc) {
		p.SetCPUAccount(acct)
		p.Work(4 * time.Microsecond)
		p.Sleep(10 * time.Microsecond) // idle: not charged
		p.Work(6 * time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if acct.Busy() != 10*time.Microsecond {
		t.Fatalf("busy = %v, want 10µs", acct.Busy())
	}
	if e.Now() != 20*time.Microsecond {
		t.Fatalf("now = %v, want 20µs", e.Now())
	}
}

func TestYieldLetsPeersRun(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A forked proc runs on the goroutine of one that already finished:
// 50 000 short procs forked one after another, a few alive at a time,
// keep the goroutine count within their peak concurrency plus a
// constant, and the idle goroutines exit when Run returns.
func TestForkedProcsReuseGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	live, peakLive, peakG := 0, 0, 0
	e.Go("forker", func(p *Proc) {
		for i := 0; i < 50000; i++ {
			live++
			peakLive = max(peakLive, live)
			e.Go("op", func(q *Proc) {
				q.Sleep(Time(1 + i%4)) // overlaps the next few forks
				live--
			})
			peakG = max(peakG, runtime.NumGoroutine())
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peakG > base+1+peakLive+2 {
		t.Errorf("%d goroutines at peak for %d procs alive at once (baseline %d)", peakG, peakLive+1, base)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panic inside a proc surfaces from Run, in the caller's goroutine,
// where it can be recovered.
func TestProcPanicReachesRun(t *testing.T) {
	e := NewEnv()
	var c Cond
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		p.Sleep(time.Microsecond)
		panic("boom")
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Signal(p.Env())
		p.Sleep(time.Hour)
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if e.Now() != 2*time.Microsecond {
			t.Fatalf("panicked at %v, want 2µs", e.Now())
		}
	}()
	e.Run()
	t.Fatal("Run returned instead of panicking")
}

// A callback may fork a proc while the goroutine driving the event loop
// is a finished proc's, already back in the idle pool: the new proc
// lands on that very goroutine, which must run it itself rather than
// hand off to itself.
func TestCallbackForksOntoFinishingGoroutine(t *testing.T) {
	e := NewEnv()
	ran := 0
	var fork func(*Env)
	fork = func(e *Env) {
		e.Go("child", func(q *Proc) {
			if ran++; ran < 100 {
				e.At(q.Now(), fork) // runs once this proc has finished
			}
		})
	}
	e.Go("root", func(p *Proc) { e.At(p.Now(), fork) })
	e.Go("hold", func(p *Proc) { p.Sleep(time.Microsecond) }) // keeps Run going
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("%d of 100 chained procs ran", ran)
	}
}
