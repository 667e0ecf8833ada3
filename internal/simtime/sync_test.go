package simtime

import (
	"testing"
	"time"
)

func TestMutexMutualExclusion(t *testing.T) {
	e := NewEnv()
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		e.Go("locker", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Microsecond)
			inside--
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
	if e.Now() != 5*time.Microsecond {
		t.Fatalf("now = %v, want 5µs (serialized critical sections)", e.Now())
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	e := NewEnv()
	var m Mutex
	var order []int
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Microsecond)
		m.Unlock(p)
	})
	for i := 0; i < 4; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Sleep(Time(i+1) * time.Microsecond) // stagger arrivals
			m.Lock(p)
			order = append(order, i)
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO by arrival", order)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEnv()
	var m Mutex
	e.Go("p", func(p *Proc) {
		if !m.TryLock(p) {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock(p) {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

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
			c.Send(p, i)
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

func TestChanRendezvous(t *testing.T) {
	e := NewEnv()
	c := NewChan[string](0)
	var sendDone, recvVal Time
	e.Go("sender", func(p *Proc) {
		c.Send(p, "hi")
		sendDone = p.Now()
	})
	e.Go("receiver", func(p *Proc) {
		p.Sleep(7 * time.Microsecond)
		v, ok := c.Recv(p)
		if !ok || v != "hi" {
			t.Errorf("recv = %q, %v", v, ok)
		}
		recvVal = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone != 7*time.Microsecond || recvVal != 7*time.Microsecond {
		t.Fatalf("sendDone=%v recv=%v, want both 7µs (rendezvous)", sendDone, recvVal)
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
			s.Process(p, 4*time.Microsecond)
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
		s.Process(p, 2*time.Microsecond)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		s.Process(p, 2*time.Microsecond)
		if p.Now() != 12*time.Microsecond {
			t.Errorf("now = %v, want 12µs (no queueing after idle gap)", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	e := NewEnv()
	m := NewMultiServer(2)
	var last Time
	for i := 0; i < 4; i++ {
		e.Go("job", func(p *Proc) {
			m.Process(p, 5*time.Microsecond)
			last = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 10*time.Microsecond {
		t.Fatalf("last = %v, want 10µs (4 jobs on 2 servers)", last)
	}
}
