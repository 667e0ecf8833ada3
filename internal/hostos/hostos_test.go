package hostos

import (
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestSyscallChargesCrossings(t *testing.T) {
	cfg := params.Default()
	os := New(&cfg)
	env := simtime.NewEnv()
	acct := &simtime.CPUAccount{}
	env.Go("p", func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		ran := false
		os.Syscall(p, func() { ran = true })
		if !ran {
			t.Error("syscall body did not run")
		}
		want := 2*cfg.SyscallCrossing + cfg.KernelDispatch
		if p.Now() != want {
			t.Errorf("elapsed = %v, want %v", p.Now(), want)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if acct.Busy() != 2*cfg.SyscallCrossing+cfg.KernelDispatch {
		t.Fatalf("cpu = %v", acct.Busy())
	}
}

// flag is a completion the waiter's ready() reads: set and signalled
// at a chosen instant, the way a completion lands in the kernel.
type flag struct {
	set  bool
	cond simtime.Cond
}

func (f *flag) ready() bool { return f.set }

func (f *flag) complete(e *simtime.Env) {
	f.set = true
	f.cond.Broadcast(e)
}

func TestAdaptiveWaitBusyPhase(t *testing.T) {
	// Completion arrives inside the poll window: the whole wait is
	// busy-polled (charged) and no wakeup latency is paid.
	cfg := params.Default()
	os := New(&cfg)
	env := simtime.NewEnv()
	acct := &simtime.CPUAccount{}
	var f flag
	arrival := cfg.AdaptivePollWindow / 2
	env.After(arrival, f.complete)
	env.Go("waiter", func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		if !os.AdaptiveWait(p, &f.cond, f.ready, 0) {
			t.Error("wait without a deadline failed")
		}
		if p.Now() != arrival {
			t.Errorf("now = %v, want %v (no wakeup latency in busy phase)", p.Now(), arrival)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if acct.Busy() != arrival {
		t.Fatalf("cpu = %v, want %v (busy phase fully charged)", acct.Busy(), arrival)
	}
}

func TestAdaptiveWaitSleepPhase(t *testing.T) {
	// Completion arrives long after the window: only the window is
	// charged, the sleep is free, and one wakeup latency is paid.
	cfg := params.Default()
	os := New(&cfg)
	reg := obs.NewDomain(1).Node(0)
	os.SetObs(reg)
	env := simtime.NewEnv()
	acct := &simtime.CPUAccount{}
	var f flag
	arrival := 200 * time.Microsecond
	env.After(arrival, f.complete)
	env.Go("waiter", func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		os.AdaptiveWait(p, &f.cond, f.ready, 0)
		if p.Now() != arrival+cfg.WakeupLatency {
			t.Errorf("now = %v, want %v", p.Now(), arrival+cfg.WakeupLatency)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := cfg.AdaptivePollWindow + cfg.WakeupLatency
	if acct.Busy() != want {
		t.Fatalf("cpu = %v, want %v (only window + wakeup charged)", acct.Busy(), want)
	}
	if n := reg.Snapshot().Counters["hostos.wait.slept"]; n != 1 {
		t.Errorf("hostos.wait.slept = %d, want 1", n)
	}
}

func TestAdaptiveWaitAlreadyReady(t *testing.T) {
	cfg := params.Default()
	os := New(&cfg)
	reg := obs.NewDomain(1).Node(0)
	os.SetObs(reg)
	env := simtime.NewEnv()
	var f flag
	env.Go("p", func(p *simtime.Proc) {
		f.complete(p.Env())
		if !os.AdaptiveWait(p, &f.cond, f.ready, 0) || p.Now() != 0 {
			t.Errorf("waited until %v on a ready completion", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["hostos.wait.immediate"]; n != 1 {
		t.Errorf("hostos.wait.immediate = %d, want 1", n)
	}
}

func TestSleepUnlessLeavesWithoutWakeup(t *testing.T) {
	// A sleeper woken to find its wait called off leaves at once and
	// pays nothing; one woken to find its completion pays its wakeup.
	for _, off := range []bool{true, false} {
		cfg := params.Default()
		os := New(&cfg)
		reg := obs.NewDomain(1).Node(0)
		os.SetObs(reg)
		env := simtime.NewEnv()
		acct := &simtime.CPUAccount{}
		var f flag
		gone := false
		env.After(time.Microsecond, func(e *simtime.Env) {
			if off {
				gone = true
				f.cond.Broadcast(e)
			} else {
				f.complete(e)
			}
		})
		env.Go("sleeper", func(p *simtime.Proc) {
			p.SetCPUAccount(acct)
			if got := os.SleepUnless(p, &f.cond, f.ready, func() bool { return gone }); got == off {
				t.Errorf("off %v: SleepUnless = %v", off, got)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		want, slept := cfg.WakeupLatency, int64(1)
		if off {
			want, slept = 0, 0
		}
		if acct.Busy() != want || reg.Snapshot().Counters["hostos.wait.slept"] != slept {
			t.Errorf("off %v: cpu %v and %d wakeups, want %v and %d", off, acct.Busy(), reg.Snapshot().Counters["hostos.wait.slept"], want, slept)
		}
	}
}
