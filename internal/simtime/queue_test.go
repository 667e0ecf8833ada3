package simtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"

	"lite/internal/allocbudget"
)

// testRand is a tiny deterministic PRNG so the randomized workloads
// replay identically run to run.
type testRand uint64

func (x *testRand) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = testRand(v)
	return v
}

// mixedWorkload drives env with a delay mix from zero to seconds —
// yields at the current instant, ns-, µs- and ms-scale sleeps, and
// multi-second timers that nearer events overtake — plus cross-proc
// signals, timed waits and scheduler callbacks. It returns the full
// dispatch trace.
func mixedWorkload(env *Env, procs, steps int) ([]string, error) {
	var trace []string
	var wake Cond
	for pi := 0; pi < procs; pi++ {
		pi := pi
		env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
			rng := testRand(pi*2654435761 + 1)
			for k := 0; k < steps; k++ {
				trace = append(trace, fmt.Sprintf("%d p%d.%d", p.Now(), pi, k))
				switch rng.next() % 8 {
				case 0:
					p.Yield()
				case 1:
					p.Sleep(Time(rng.next() % 300)) // under 300 ns
				case 2:
					p.Sleep(Time(rng.next() % 100_000)) // up to 100 µs
				case 3:
					p.Sleep(Time(2_000_000 + rng.next()%20_000_000)) // 2-22 ms
				case 4:
					p.Sleep(Time(4_500_000_000 + rng.next()%3_000_000_000)) // seconds
				case 5:
					t := p.Now() + Time(rng.next()%5_000)
					p.Env().At(t, func(e *Env) {
						trace = append(trace, fmt.Sprintf("%d cb%d.%d", e.Now(), pi, k))
					})
				case 6:
					wake.Signal(p.Env())
					p.Yield()
				case 7:
					if !wake.WaitTimeout(p, Time(rng.next()%3_000_000)) {
						trace = append(trace, fmt.Sprintf("%d timeout%d.%d", p.Now(), pi, k))
					}
				}
			}
			// Drain any waiters left on the cond so the run can finish.
			wake.Broadcast(p.Env())
		})
	}
	err := env.Run()
	return trace, err
}

// TestMixedWorkloadTracePinned pins the dispatch order of the park /
// resume / continuation-stealing protocol: the digest is the trace a
// plain binary heap on (t, seq) with a dedicated scheduler goroutine
// produces for this workload, so any change to which event runs next —
// in the queue or in the handoff — moves it.
func TestMixedWorkloadTracePinned(t *testing.T) {
	const (
		wantLen    = 1181
		wantDigest = 0x373c51be637fc18d // FNV-64a of the trace joined by "\n"
	)
	trace, err := mixedWorkload(NewEnv(), 24, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(trace, "\n")))
	if len(trace) != wantLen || h.Sum64() != wantDigest {
		t.Fatalf("dispatch trace moved: %d entries, digest %#x; want %d, %#x",
			len(trace), h.Sum64(), wantLen, uint64(wantDigest))
	}
}

// TestEventQueueMatchesSortedModel drives the event queue directly
// with seeded random push/requeue/pop interleavings and requires the
// popped order to equal a stable sort of everything queued on (t, seq).
// Pushes obey the scheduler's contract (t >= now, seq increasing, now =
// the last popped t), and so do re-queues, which reuse a seq reserved
// earlier for a deadline as a lazy timeout does; under that contract
// the global pop order is exactly that sort. Each seed must exercise
// the run queue, the heap, a run-queue/heap tie at now, and a re-queue
// at now ahead of queued run-queue events.
func TestEventQueueMatchesSortedModel(t *testing.T) {
	type key struct {
		t   Time
		seq int64
	}
	for seed := 1; seed <= 8; seed++ {
		rng := testRand(seed * 2654435761)
		var q eventQueue
		var now Time
		var seq int64
		var pushed, popped, reserved []key
		var last key // the last popped key
		var sawRunq, sawHeap, sawTie, sawRequeueTie bool

		push := func(at Time) {
			seq++
			pushed = append(pushed, key{at, seq})
			q.push(now, event{t: at, seq: seq})
		}
		// reserve takes a seq for a deadline at at without queueing it.
		reserve := func(at Time) {
			seq++
			reserved = append(reserved, key{at, seq})
		}
		// requeue queues a reserved deadline still after the last pop,
		// one at now if there is one; the deadlines before the last pop
		// ended without an event and are dropped.
		requeue := func() {
			live := reserved[:0]
			for _, k := range reserved {
				if k.t > last.t || k.t == last.t && k.seq > last.seq {
					live = append(live, k)
				}
			}
			reserved = live
			if len(reserved) == 0 {
				return
			}
			i := 0
			for j, k := range reserved {
				if k.t == now {
					i = j
					break
				}
			}
			k := reserved[i]
			reserved = append(reserved[:i], reserved[i+1:]...)
			if q.runq.n > 0 && k.t == now && k.seq < q.runq.peek().seq {
				sawRequeueTie = true
			}
			pushed = append(pushed, k)
			q.requeue(event{t: k.t, seq: k.seq})
		}
		pop := func() {
			tie := q.runq.n > 0 && len(q.heap) > 0 && q.heap[0].t == now
			ev, ok := q.pop(now)
			if !ok {
				t.Fatalf("seed %d: pop on a queue of %d events returned empty", seed, len(pushed)-len(popped))
			}
			sawTie = sawTie || tie
			now = ev.t
			last = key{ev.t, ev.seq}
			popped = append(popped, last)
		}
		for step := 0; step < 6000; step++ {
			if pending := len(pushed) - len(popped); pending > 0 && rng.next()%5 < 2 {
				pop()
				continue
			}
			switch rng.next() % 9 {
			case 0, 1: // same instant: run queue
				push(now)
			case 2: // a burst and a deadline sharing one future instant, later tied by run-queue pushes
				at := now + Time(1+rng.next()%2000)
				for i := 0; i < 3; i++ {
					push(at)
				}
				reserve(at)
			case 3: // a few ns ahead
				push(now + Time(rng.next()%600))
			case 4: // up to ~1 ms ahead
				push(now + Time(rng.next()%900_000))
			case 5: // milliseconds ahead
				push(now + Time(1_100_000+rng.next()%40_000_000))
			case 6: // up to seconds ahead
				push(now + Time(1_100_000+rng.next()%4_290_000_000))
			case 7: // seconds ahead, overtaken by nearer pushes
				push(now + Time(4_290_000_000+rng.next()%2_000_000_000))
			case 8: // a lazy timeout re-queues a deadline under its old seq
				requeue()
			}
			sawRunq = sawRunq || q.runq.n > 0
			sawHeap = sawHeap || len(q.heap) > 0
		}
		for len(popped) < len(pushed) {
			pop()
		}
		if _, ok := q.pop(now); ok {
			t.Fatalf("seed %d: queue not empty after popping everything pushed", seed)
		}
		if !sawRunq || !sawHeap || !sawTie || !sawRequeueTie {
			t.Fatalf("seed %d: workload missed a case: runq=%v heap=%v runq/heap tie=%v requeue ahead of runq=%v",
				seed, sawRunq, sawHeap, sawTie, sawRequeueTie)
		}
		want := append([]key(nil), pushed...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].t != want[j].t {
				return want[i].t < want[j].t
			}
			return want[i].seq < want[j].seq
		})
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("seed %d: pop %d = %+v, sorted model has %+v", seed, i, popped[i], want[i])
			}
		}
	}
}

// The queue's capacity follows the most events ever pending at once,
// not the span of virtual time they cover: n procs sleeping random
// delays from nanoseconds to a second, for several seconds, have at
// most n wakeups pending and leave room for about 2n events.
func TestEventQueueCapacityFollowsPending(t *testing.T) {
	const n = 256
	env := NewEnv()
	for pi := 0; pi < n; pi++ {
		env.Go(fmt.Sprintf("t%d", pi), func(p *Proc) {
			rng := testRand(pi*2654435761 + 1)
			for p.Now() < 5*time.Second {
				switch rng.next() % 4 {
				case 0:
					p.Sleep(Time(rng.next() % 1_000))
				case 1:
					p.Sleep(Time(rng.next() % 1_000_000))
				case 2:
					p.Sleep(Time(rng.next() % 100_000_000))
				case 3:
					p.Sleep(Time(rng.next() % 1_000_000_000))
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// ~2n: each store grows by doubling, and append rounds the heap's
	// growth up to an allocation size class.
	if c, want := cap(env.q.heap)+len(env.q.runq.ev), 2*n+n/2; c > want {
		t.Fatalf("queue holds room for %d events after a run with at most %d pending, want at most %d", c, n, want)
	}
}

// A warm storm of wakeups, 1024 procs sleeping to the same instants,
// allocates nothing per round: the queue reuses its capacity.
func TestWakeStormDoesNotAllocate(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	const procs = 1024
	env := NewEnv()
	for pi := 0; pi < procs; pi++ {
		env.GoDaemon(fmt.Sprintf("w%d", pi), func(p *Proc) {
			for {
				p.SleepUntil(p.Now() + time.Microsecond)
			}
		})
	}
	env.Go("driver", func(p *Proc) {
		round := func() { p.Sleep(time.Microsecond) }
		for i := 0; i < 10; i++ {
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("%.1f allocations per storm round, want 0", n)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSameInstantSeqOrder pins the tie-break rule: events scheduled for
// the same instant dispatch in scheduling (seq) order, whether they
// were scheduled at that instant or before the clock reached it.
func TestSameInstantSeqOrder(t *testing.T) {
	env := NewEnv()
	var got []int
	const at = Time(1000)
	for i := 0; i < 32; i++ {
		i := i
		env.At(at, func(*Env) { got = append(got, i) })
	}
	// A second instant reached via a timer wake, mixing events scheduled
	// at now with events scheduled before.
	const at2 = at + 500
	env.At(at2, func(e *Env) { got = append(got, 100) })
	env.At(at, func(e *Env) {
		e.At(at2, func(*Env) { got = append(got, 101) })
	})
	env.Go("driver", func(p *Proc) { p.SleepUntil(at2 + 1) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 34 {
		t.Fatalf("got %d events, want 34", len(got))
	}
	for i := 0; i < 32; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order violated at %d: got %v", i, got[:32])
		}
	}
	// seq order at at2: the boot-time callback (100) was scheduled
	// before the one armed during the at-batch (101).
	if got[32] != 100 || got[33] != 101 {
		t.Fatalf("cross-instant seq order violated: tail %v", got[32:])
	}
}

// TestFarFutureOverflow checks timers tens of seconds ahead: they fire
// in (t, seq) order, including when nearer timers are scheduled after
// them.
func TestFarFutureOverflow(t *testing.T) {
	env := NewEnv()
	var got []Time
	times := []Time{
		90 * time.Second,
		10 * time.Second,
		5 * time.Second,
		30 * time.Second,
		10 * time.Second, // duplicate instant: seq breaks the tie
	}
	for _, at := range times {
		at := at
		env.At(at, func(e *Env) {
			got = append(got, e.Now())
			// Schedule a nearer event from inside a far one; it must
			// still sort before the next far one.
			e.After(time.Millisecond, func(e *Env) { got = append(got, e.Now()) })
		})
	}
	env.Go("driver", func(p *Proc) { p.SleepUntil(100 * time.Second) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{
		5 * time.Second, 5*time.Second + time.Millisecond,
		10 * time.Second, 10 * time.Second, 10*time.Second + time.Millisecond, 10*time.Second + time.Millisecond,
		30 * time.Second, 30*time.Second + time.Millisecond,
		90 * time.Second, 90*time.Second + time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestBucketRollover checks a long run of evenly spaced timers
// scheduled up front: they fire in time order, each exactly once.
func TestBucketRollover(t *testing.T) {
	env := NewEnv()
	var got []Time
	// One event per 100 µs across 40 ms.
	for i := 1; i <= 400; i++ {
		env.At(Time(i)*100*time.Microsecond, func(e *Env) { got = append(got, e.Now()) })
	}
	env.Go("driver", func(p *Proc) { p.SleepUntil(41 * time.Millisecond) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("got %d events, want 400", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	// 400 callbacks + the driver's spawn wake + its sleep wake.
	if env.Events() != 402 {
		t.Fatalf("Events() = %d, want 402", env.Events())
	}
}

// TestDeadlockReported checks that a stuck simulation names the parked
// processes instead of hanging.
func TestDeadlockReported(t *testing.T) {
	env := NewEnv()
	var c Cond
	env.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := env.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Fatalf("parked = %v, want [stuck]", dl.Parked)
	}
	if !strings.Contains(dl.Error(), "stuck") {
		t.Fatalf("error text %q does not name the process", dl.Error())
	}
}

// TestSyncAccessors covers the small inspection surface of the sync
// primitives and the process accessors.
func TestSyncAccessors(t *testing.T) {
	env := NewEnv()
	var c Cond
	sem := NewSemaphore(2)
	ch := NewChan[int](2)
	env.Go("main", func(p *Proc) {
		p.SetTrace("tag")
		if p.Trace() != "tag" {
			t.Errorf("Trace() = %v", p.Trace())
		}
		node := &CPUAccount{}
		acct := &CPUAccount{Parent: node}
		p.SetCPUAccount(acct)
		p.Work(time.Microsecond)
		p.Charge(2 * time.Microsecond)
		if acct.Busy() != 3*time.Microsecond || node.Busy() != 3*time.Microsecond {
			t.Errorf("Busy() = %v, parent's %v, want 3µs each", acct.Busy(), node.Busy())
		}
		sem.Acquire(p)
		sem.Release(p.Env())
		if !ch.TrySend(p, 7) {
			t.Error("TrySend on an empty buffer failed")
		}
		if v, ok := ch.TryRecv(p); !ok || v != 7 {
			t.Errorf("TryRecv = %d, %v", v, ok)
		}
		ch.Close(p)
		if _, ok := ch.Recv(p); ok {
			t.Error("Recv on a closed, drained Chan succeeded")
		}
		env.Go("waiter", func(p *Proc) { c.Wait(p) })
		p.Yield()
		if c.Waiters() != 1 {
			t.Errorf("Waiters() = %d, want 1", c.Waiters())
		}
		c.Signal(p.Env())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestServerAccessors covers the resource-server inspection surface.
func TestServerAccessors(t *testing.T) {
	env := NewEnv()
	var srv Server
	env.Go("main", func(p *Proc) {
		p.SleepUntil(srv.Reserve(p.Now(), 10*time.Microsecond))
		if srv.FreeAt() != 10*time.Microsecond {
			t.Errorf("FreeAt() = %v, want 10µs", srv.FreeAt())
		}
		if srv.BusyTotal() != 10*time.Microsecond {
			t.Errorf("BusyTotal() = %v, want 10µs", srv.BusyTotal())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEnvRun measures raw scheduler throughput: one process
// sleeping in a tight loop, so every event is a self-wake (the
// continuation-stealing fast path).
func BenchmarkEnvRun(b *testing.B) {
	env := NewEnv()
	env.Go("timer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(100)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkHandoff measures the cost of waking a different proc: two
// procs ping-pong through a Cond, so every event hands the running slot
// to the other one.
func BenchmarkHandoff(b *testing.B) {
	env := NewEnv()
	var c Cond
	turn := 0
	for me := 0; me < 2; me++ {
		env.Go(fmt.Sprintf("p%d", me), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				for turn != me {
					c.Wait(p)
				}
				turn = 1 - me
				c.Signal(p.Env())
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(env.Events()), "ns/handoff")
}

// BenchmarkWakeStorm measures cross-proc wakeups under fan-out: 1024
// processes all sleeping to the same instants, so every round is a
// thundering herd of wakeups tied at one instant.
func BenchmarkWakeStorm(b *testing.B) {
	const procs = 1024
	env := NewEnv()
	for pi := 0; pi < procs; pi++ {
		env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.SleepUntil(Time(i+1) * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(env.Events())/b.Elapsed().Seconds(), "events/s")
}
