package simtime

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestAtCallbackRunsAtTime(t *testing.T) {
	e := NewEnv()
	var fired Time
	e.At(5*time.Microsecond, func(env *Env) { fired = env.Now() })
	e.Go("main", func(p *Proc) { p.Sleep(10 * time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Microsecond {
		t.Fatalf("fired at %v", fired)
	}
}

func TestAtInThePastFiresNow(t *testing.T) {
	e := NewEnv()
	var fired Time = -1
	e.Go("main", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		p.Env().At(3*time.Microsecond, func(env *Env) { fired = env.Now() })
		p.Sleep(time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Microsecond {
		t.Fatalf("past callback fired at %v, want now (10us)", fired)
	}
}

func TestCallbackCanWakeProcess(t *testing.T) {
	e := NewEnv()
	var c Cond
	woken := false
	e.After(4*time.Microsecond, func(env *Env) { c.Signal(env) })
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		woken = true
		if p.Now() != 4*time.Microsecond {
			t.Errorf("woken at %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("never woken")
	}
}

func TestCallbacksDoNotKeepRunAlive(t *testing.T) {
	e := NewEnv()
	fired := false
	e.At(100*time.Microsecond, func(*Env) { fired = true })
	e.Go("main", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("callback after the last live process should not run")
	}
	if e.Now() != time.Microsecond {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestCallbackOrderingWithinInstant(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Microsecond, func(*Env) { order = append(order, i) })
	}
	e.Go("main", func(p *Proc) { p.Sleep(2 * time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO by scheduling", order)
		}
	}
}

// countdown is a typed callback record: it reschedules itself until n
// runs out, logging each firing.
type countdown struct {
	n   int
	log *[]string
}

func (c *countdown) Fire(e *Env) {
	*c.log = append(*c.log, fmt.Sprintf("rec%d@%v", c.n, e.Now()))
	if c.n--; c.n > 0 {
		e.Schedule(e.Now()+time.Microsecond, c)
	}
}

// Records and plain funcs share one queue and one dispatch: at a shared
// instant they fire in scheduling order, and a record may reschedule
// itself.
func TestScheduleRecordsAndFuncsShareOrder(t *testing.T) {
	e := NewEnv()
	var log []string
	e.At(time.Microsecond, func(env *Env) { log = append(log, fmt.Sprintf("fn@%v", env.Now())) })
	e.Schedule(time.Microsecond, &countdown{n: 3, log: &log})
	e.At(2*time.Microsecond, func(env *Env) { log = append(log, fmt.Sprintf("fn@%v", env.Now())) })
	e.Go("main", func(p *Proc) { p.Sleep(5 * time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "fn@1µs rec3@1µs fn@2µs rec2@2µs rec1@3µs"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if e.Events() != 7 {
		t.Fatalf("events = %d, want 5 callbacks and main's two wakeups", e.Events())
	}
}

// funcAction adapts a func without allocating, so At costs no more than
// scheduling a record.
func TestAtConversionDoesNotAllocate(t *testing.T) {
	fn := func(*Env) {}
	var a Action
	if n := testing.AllocsPerRun(100, func() { a = funcAction(fn) }); n != 0 {
		t.Fatalf("funcAction conversion: %.0f allocations", n)
	}
	_ = a
}
