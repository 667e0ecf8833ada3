package simtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"time"
)

// calqRand is a tiny deterministic PRNG so the randomized workloads
// replay identically run to run.
type calqRand uint64

func (x *calqRand) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = calqRand(v)
	return v
}

// mixedWorkload drives env with a delay mix chosen to land events in
// every calendar tier — the same-instant run queue (yields), L0 (ns-
// and µs-scale sleeps), L1 (ms-scale sleeps that cascade on bucket
// rollover), and the overflow heap (multi-second timers beyond the
// ~4.3 s L1 horizon) — plus cross-proc signals and scheduler
// callbacks. It returns the full dispatch trace.
func mixedWorkload(env *Env, procs, steps int) ([]string, error) {
	var trace []string
	var wake Cond
	for pi := 0; pi < procs; pi++ {
		pi := pi
		env.Go(fmt.Sprintf("w%d", pi), func(p *Proc) {
			rng := calqRand(pi*2654435761 + 1)
			for k := 0; k < steps; k++ {
				trace = append(trace, fmt.Sprintf("%d p%d.%d", p.Now(), pi, k))
				switch rng.next() % 8 {
				case 0:
					p.Yield()
				case 1:
					p.Sleep(Time(rng.next() % 300)) // same L0 bucket or next
				case 2:
					p.Sleep(Time(rng.next() % 100_000)) // within the L0 lap
				case 3:
					p.Sleep(Time(2_000_000 + rng.next()%20_000_000)) // L1, cascades
				case 4:
					p.Sleep(Time(4_500_000_000 + rng.next()%3_000_000_000)) // overflow
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

// TestCalqMatchesSortedModel drives the calendar queue directly with
// seeded random push/pop interleavings and requires the popped order to
// equal a stable sort of everything pushed on (t, seq). Pushes obey the
// scheduler's contract (t >= now, seq increasing, now = the last popped
// t), under which the global pop order is exactly that sort. Each seed
// must exercise the run queue, both wheels, a coarse-to-fine cascade and
// the spillover heap.
func TestCalqMatchesSortedModel(t *testing.T) {
	type key struct {
		t   Time
		seq int64
	}
	for seed := 1; seed <= 8; seed++ {
		rng := calqRand(seed * 2654435761)
		var q calq
		var now Time
		var seq int64
		var pushed, popped []key
		var sawRunq, sawL0, sawL1, sawOverflow, sawRunqTie bool
		cascades := 0

		push := func(at Time) {
			seq++
			pushed = append(pushed, key{at, seq})
			q.push(now, event{t: at, seq: seq})
		}
		pop := func() {
			base1, wheelTie := q.base1, false
			if idx := int((int64(now) >> l0Shift) & l0Mask); q.runq.n > 0 && q.l0.occupied(idx) {
				b := &q.l0.buckets[idx]
				wheelTie = b.ev[b.head].t == now
			}
			ev, ok := q.pop(now)
			if !ok {
				t.Fatalf("seed %d: pop on a queue of %d events returned empty", seed, len(pushed)-len(popped))
			}
			sawRunqTie = sawRunqTie || wheelTie
			if q.base1 != base1 && q.l0.size > 0 {
				cascades++
			}
			now = ev.t
			popped = append(popped, key{ev.t, ev.seq})
		}
		for step := 0; step < 6000; step++ {
			if pending := len(pushed) - len(popped); pending > 0 && rng.next()%5 < 2 {
				pop()
				continue
			}
			switch rng.next() % 8 {
			case 0, 1: // same instant: run queue
				push(now)
			case 2: // a burst sharing one future instant, later tied by run-queue pushes
				at := now + Time(1+rng.next()%2000)
				for i := 0; i < 3; i++ {
					push(at)
				}
			case 3: // same or neighbouring fine bucket
				push(now + Time(rng.next()%600))
			case 4: // within the fine wheel's lap
				push(now + Time(rng.next()%900_000))
			case 5: // coarse wheel: cascades into the fine wheel on rollover
				push(now + Time(1_100_000+rng.next()%40_000_000))
			case 6: // anywhere in the coarse wheel, up to its ~4.29 s horizon
				push(now + Time(1_100_000+rng.next()%4_290_000_000))
			case 7: // around and beyond the horizon: spillover heap, drained as the window advances
				push(now + Time(4_290_000_000+rng.next()%2_000_000_000))
			}
			sawRunq = sawRunq || q.runq.n > 0
			sawL0 = sawL0 || q.l0.size > 0
			sawL1 = sawL1 || q.l1.size > 0
			sawOverflow = sawOverflow || len(q.overflow) > 0
		}
		for len(popped) < len(pushed) {
			pop()
		}
		if _, ok := q.pop(now); ok || q.len() != 0 {
			t.Fatalf("seed %d: queue not empty after popping everything pushed (len %d)", seed, q.len())
		}
		if !sawRunq || !sawL0 || !sawL1 || !sawOverflow || !sawRunqTie || cascades == 0 {
			t.Fatalf("seed %d: workload missed a tier: runq=%v l0=%v l1=%v overflow=%v runq/wheel tie=%v cascades=%d",
				seed, sawRunq, sawL0, sawL1, sawOverflow, sawRunqTie, cascades)
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

// TestSameInstantSeqOrder pins the tie-break rule: events scheduled for
// the same instant dispatch in scheduling (seq) order, whether they
// sit in the run queue or in the L0 bucket the clock is entering.
func TestSameInstantSeqOrder(t *testing.T) {
	env := NewEnv()
	var got []int
	const at = Time(1000)
	for i := 0; i < 32; i++ {
		i := i
		env.At(at, func(*Env) { got = append(got, i) })
	}
	// A second instant reached via a timer wake, mixing run-queue
	// entries (scheduled at now) with wheel entries (scheduled before).
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

// TestFarFutureOverflow exercises the overflow heap: timers far beyond
// the ~4.3 s L1 horizon must still fire in (t, seq) order, including
// when nearer timers are inserted after them (the drain-on-advance
// invariant).
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
			// Schedule a nearer event from inside a drained overflow
			// event; it must still sort correctly.
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

// TestBucketRollover exercises L1 cascade: a sleep past the ~1.05 ms
// L0 lap lands in L1 and must cascade into L0 (sorted) when the clock
// reaches its bucket, interleaving correctly with L0-native timers.
func TestBucketRollover(t *testing.T) {
	env := NewEnv()
	var got []Time
	// One event per 100 µs across 40 ms: every L1 bucket boundary in
	// range is crossed, and each cascade must preserve order.
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
	var mu Mutex
	var c Cond
	sem := NewSemaphore(2)
	ch := NewChan[int](2)
	env.Go("main", func(p *Proc) {
		if p.Name() != "main" {
			t.Errorf("Name() = %q", p.Name())
		}
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
		mu.Lock(p)
		if !mu.Locked() {
			t.Error("Locked() = false with the lock held")
		}
		mu.Unlock(p)
		if mu.Locked() {
			t.Error("Locked() = true after unlock")
		}
		if !sem.TryAcquire(p) || sem.Available() != 1 {
			t.Errorf("TryAcquire/Available = %d, want 1", sem.Available())
		}
		sem.Release(p.Env())
		if !ch.TrySend(p, 7) || ch.Len() != 1 {
			t.Errorf("TrySend/Len = %d, want 1", ch.Len())
		}
		if v, ok := ch.TryRecv(p); !ok || v != 7 {
			t.Errorf("TryRecv = %d, %v", v, ok)
		}
		if ch.Closed() {
			t.Error("Closed() = true before Close")
		}
		ch.Close(p)
		if !ch.Closed() {
			t.Error("Closed() = false after Close")
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
	ms := NewMultiServer(2)
	env.Go("main", func(p *Proc) {
		srv.Process(p, 10*time.Microsecond)
		if srv.FreeAt() != 10*time.Microsecond {
			t.Errorf("FreeAt() = %v, want 10µs", srv.FreeAt())
		}
		if srv.BusyTotal() != 10*time.Microsecond {
			t.Errorf("BusyTotal() = %v, want 10µs", srv.BusyTotal())
		}
		ms.Process(p, 4*time.Microsecond)
		if ms.BusyTotal() != 4*time.Microsecond {
			t.Errorf("MultiServer.BusyTotal() = %v, want 4µs", ms.BusyTotal())
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
// thundering herd through the same calendar bucket.
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
