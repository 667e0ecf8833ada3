package simtime

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// chainDepth returns how many workers are on the resume chain: running,
// or suspended inside a resume they made.
func chainDepth(e *Env) int {
	n := 0
	for _, p := range e.procs {
		if p.w != nil && p.w.resumed {
			n++
		}
	}
	for _, w := range e.idle {
		if w.resumed {
			n++
		}
	}
	return n
}

// relay spawns n procs that pass a token round robin for laps laps,
// sleeping step (if positive) before each pass. Proc i waits for its
// turn on its own Cond, then signals proc i+1's. A pass forward resumes
// a suspended worker from the running one, so on the first lap the
// resume chain grows one worker per proc below Run's goroutine; the
// pass from proc n-1 back to proc 0 unwinds it. at runs before each
// pass with the proc's index and the chain's depth; passes counts the
// passes made.
func relay(e *Env, n, laps int, step Time, passes *int, at func(i, depth int)) {
	conds := make([]Cond, n)
	turn := 0
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("relay%d", i), func(p *Proc) {
			for lap := 0; lap < laps; lap++ {
				for turn != i {
					conds[i].Wait(p)
				}
				if step > 0 {
					p.Sleep(step)
				}
				if at != nil {
					at(i, chainDepth(e))
				}
				*passes++
				turn = (i + 1) % n
				conds[turn].Signal(e)
			}
		})
	}
}

// A panic in the deepest proc of a resume chain unwinds every
// coroutine above it and surfaces from Run, where it can be recovered.
func TestResumeChainPanicReachesRun(t *testing.T) {
	const n = 6
	e := NewEnv()
	var passes int
	relay(e, n, 2, 0, &passes, func(i, depth int) {
		if i == n-1 {
			if depth != n {
				t.Errorf("chain %d workers deep at the last proc, want %d", depth, n)
			}
			panic("deep")
		}
	})
	defer func() {
		if r := recover(); r != "deep" {
			t.Fatalf("recovered %v, want deep", r)
		}
		if passes != n-1 {
			t.Fatalf("panicked after %d passes, want %d", passes, n-1)
		}
	}()
	e.Run()
	t.Fatal("Run returned instead of panicking")
}

// t.Fatal is t.Fail followed by runtime.Goexit. A Goexit in the
// deepest proc of a resume chain must end the goroutine that called
// Run, as it would a test's, rather than return from Run or hang.
func TestResumeChainGoexitEndsRunsGoroutine(t *testing.T) {
	const n = 6
	e := NewEnv()
	var passes, deepest int
	relay(e, n, 2, 0, &passes, func(i, depth int) {
		if i == n-1 {
			deepest = depth
			runtime.Goexit()
		}
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run()
		ok = true
	}()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("Run returned after the deepest proc called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after the deepest proc called Goexit")
	}
	if deepest != n || passes != n-1 {
		t.Fatalf("Goexit at chain depth %d after %d passes, want %d after %d", deepest, passes, n, n-1)
	}
}

// When the last non-daemon proc finishes at the bottom of a resume
// chain several workers deep, with a daemon still parked, the chain
// unwinds to Run and Run returns; a second Run after a new Go resumes
// the daemon and completes.
func TestResumeChainUnwindsPastParkedDaemon(t *testing.T) {
	const n = 6
	e := NewEnv()
	var idle Cond
	woken := 0
	e.GoDaemon("idler", func(p *Proc) {
		for {
			idle.Wait(p)
			woken++
		}
	})
	var passes, depth int
	relay(e, n, 1, 0, &passes, func(_, d int) { depth = d })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The idler parked first, resuming relay0 from its own coroutine:
	// it is the chain's first link.
	if passes != n || depth != n+1 {
		t.Fatalf("run made %d passes, the last at chain depth %d; want %d at depth %d", passes, depth, n, n+1)
	}
	if d := chainDepth(e); d != 0 {
		t.Fatalf("%d workers still on the chain after Run", d)
	}
	e.Go("again", func(p *Proc) {
		idle.Signal(e)
		p.Sleep(time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 || e.Now() != time.Microsecond || chainDepth(e) != 0 {
		t.Fatalf("second run woke the daemon %d times and ended at %v with %d workers on the chain; want 1, 1µs, 0",
			woken, e.Now(), chainDepth(e))
	}
}
