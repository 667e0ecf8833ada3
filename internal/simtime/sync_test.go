package simtime

import (
	"testing"
	"time"

	"lite/internal/allocbudget"
)

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEnv()
	var c Cond
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(time.Microsecond)
		c.Signal(p.Env())
		p.Sleep(time.Microsecond)
		if woken != 1 {
			t.Errorf("woken = %d after one Signal, want 1", woken)
		}
		c.Broadcast(p.Env())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEnv()
	var c Cond
	var timedOut, signaled bool
	e.Go("timeouter", func(p *Proc) {
		if got := c.WaitTimeout(p, 2*time.Microsecond); got {
			t.Error("expected timeout, got signal")
		}
		timedOut = true
	})
	e.Go("signaled", func(p *Proc) {
		p.Sleep(3 * time.Microsecond) // start waiting after the first timed out
		if got := c.WaitTimeout(p, 100*time.Microsecond); !got {
			t.Error("expected signal, got timeout")
		}
		signaled = true
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		// The first waiter's entry left the queue with its timeout.
		c.Signal(p.Env())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !signaled {
		t.Fatalf("timedOut=%v signaled=%v", timedOut, signaled)
	}
}

// TestCondSignalNewestIsLIFO: SignalNewest wakes the waiter that
// queued last, and a waiter whose timeout fired has already taken its
// record out of the queue, wherever in it the record sat.
func TestCondSignalNewestIsLIFO(t *testing.T) {
	e := NewEnv()
	var c Cond
	var order []int
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			p.Sleep(Time(i+1) * time.Microsecond)
			if i == 1 {
				if c.WaitTimeout(p, 2*time.Microsecond) {
					t.Error("middle waiter signaled, want its timeout")
				}
				return
			}
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		if n := c.Waiters(); n != 2 {
			t.Errorf("Waiters() = %d after the middle one timed out, want 2", n)
		}
		c.SignalNewest(p.Env())
		p.Sleep(time.Microsecond)
		c.SignalNewest(p.Env())
		if c.SignalNewest(p.Env()) {
			t.Error("SignalNewest woke a waiter from an empty queue")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 0 {
		t.Fatalf("woken in order %v, want [2 0]", order)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	s := NewSemaphore(2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Microsecond)
			inside--
			s.Release(p.Env())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("maxInside = %d, want 2", maxInside)
	}
	if e.Now() != 3*time.Microsecond {
		t.Fatalf("now = %v, want 3µs (6 jobs, 2 at a time)", e.Now())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv()
	var wg WaitGroup
	finished := 0
	wg.Add(3)
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(Time(i+1) * time.Microsecond)
			finished++
			wg.Done(p.Env())
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		if finished != 3 {
			t.Errorf("finished = %d at Wait return, want 3", finished)
		}
		if p.Now() != 3*time.Microsecond {
			t.Errorf("now = %v, want 3µs", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanBuffered(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](2)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			for !c.TrySend(p, i) {
				p.Sleep(time.Microsecond)
			}
		}
		c.Close(p)
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 values", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want in-order", got)
		}
	}
}

func TestChanTryOps(t *testing.T) {
	e := NewEnv()
	c := NewChan[int](1)
	e.Go("p", func(p *Proc) {
		if _, ok := c.TryRecv(p); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		if !c.TrySend(p, 1) {
			t.Error("TrySend with space failed")
		}
		if c.TrySend(p, 2) {
			t.Error("TrySend on full chan succeeded")
		}
		v, ok := c.TryRecv(p)
		if !ok || v != 1 {
			t.Errorf("TryRecv = %d, %v", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFOQueueing(t *testing.T) {
	e := NewEnv()
	var s Server
	var done []Time
	for i := 0; i < 3; i++ {
		e.Go("job", func(p *Proc) {
			p.SleepUntil(s.Reserve(p.Now(), 4*time.Microsecond))
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{4 * time.Microsecond, 8 * time.Microsecond, 12 * time.Microsecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if s.BusyTotal() != 12*time.Microsecond {
		t.Fatalf("busy = %v, want 12µs", s.BusyTotal())
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEnv()
	var s Server
	e.Go("a", func(p *Proc) {
		p.SleepUntil(s.Reserve(p.Now(), 2*time.Microsecond))
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		p.SleepUntil(s.Reserve(p.Now(), 2*time.Microsecond))
		if p.Now() != 12*time.Microsecond {
			t.Errorf("now = %v, want 12µs (no queueing after idle gap)", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// waitq is driven against a plain slice with seeded pushes, FIFO and
// LIFO pops and removals; stale records (a superseded generation, a
// finished proc) must be skipped by both ends exactly as the model
// skips them.
func TestWaitqMatchesSliceModel(t *testing.T) {
	procs := make([]*Proc, 6)
	for k := range procs {
		procs[k] = &Proc{gen: 1}
	}
	valid := func(r waiter) bool { return r.gen == r.p.gen && !r.p.done }
	rng := testRand(7)
	var q waitq
	var model []waiter
	for step := 0; step < 20000; step++ {
		switch rng.next() % 6 {
		case 0, 1:
			p := procs[rng.next()%uint64(len(procs))]
			r := waiter{p, p.gen}
			q.push(r)
			model = append(model, r)
		case 2, 3:
			newest := rng.next()%2 == 0
			got, ok := q.popValid(newest)
			var want waiter
			found := false
			for len(model) > 0 && !found {
				if newest {
					want, model = model[len(model)-1], model[:len(model)-1]
				} else {
					want, model = model[0], model[1:]
				}
				found = valid(want)
			}
			if ok != found || got != want && found {
				t.Fatalf("step %d: popValid(newest=%v) = %v %v, want %v %v", step, newest, got, ok, want, found)
			}
		case 4:
			if len(model) > 0 {
				r := model[rng.next()%uint64(len(model))]
				q.remove(r)
				for k := range model {
					if model[k] == r {
						model = append(model[:k], model[k+1:]...)
						break
					}
				}
			}
		case 5: // a proc moves on: its queued records go stale
			p := procs[rng.next()%uint64(len(procs))]
			p.gen++
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: %d records queued, model has %d", step, q.len(), len(model))
		}
	}
}

// A cond that keeps filling and draining reuses its backing array: a
// steady ping-pong between two procs allocates nothing per round.
func TestCondPingPongDoesNotAllocate(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	e := NewEnv()
	var ping, pong Cond
	turn := 0
	e.GoDaemon("ponger", func(p *Proc) {
		for {
			for turn != 1 {
				pong.Wait(p)
			}
			turn = 0
			ping.Signal(p.Env())
		}
	})
	e.Go("pinger", func(p *Proc) {
		round := func() {
			turn = 1
			pong.Signal(p.Env())
			for turn != 0 {
				ping.Wait(p)
			}
		}
		for i := 0; i < 100; i++ {
			round()
		}
		if n := testing.AllocsPerRun(1000, round); n != 0 {
			t.Errorf("%.0f allocations per ping-pong round, want 0", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewChanRejectsCapacityBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChan(0) did not panic")
		}
	}()
	NewChan[int](0)
}
