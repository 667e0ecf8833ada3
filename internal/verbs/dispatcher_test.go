package verbs

import (
	"testing"
	"time"

	"lite/internal/allocbudget"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

func TestTryPollCQ(t *testing.T) {
	env, _, a, _ := newPair(t)
	env.Go("p", func(p *simtime.Proc) {
		cq := a.CreateCQ()
		if _, ok := a.TryPollCQ(p, cq); ok {
			t.Error("TryPoll on empty CQ succeeded")
		}
		cq.Push(p.Env(), rnic.CQE{WRID: 9})
		cqe, ok := a.TryPollCQ(p, cq)
		if !ok || cqe.WRID != 9 {
			t.Errorf("cqe = %+v ok = %v", cqe, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPostRecvChargesDoorbell(t *testing.T) {
	env, cfg, a, _ := newPair(t)
	env.Go("p", func(p *simtime.Proc) {
		pa, _ := a.NIC().Mem().AllocContiguous(4096)
		mr, _ := a.RegisterPhysMR(p, pa, 4096, rnic.PermRead|rnic.PermWrite)
		qp := a.CreateQP(rnic.UD, a.CreateCQ(), a.CreateCQ())
		start := p.Now()
		if err := a.PostRecvN(p, qp, rnic.PostedRecv{MR: mr, Len: 64, WRID: 1}, 1); err != nil {
			t.Fatal(err)
		}
		if p.Now()-start != cfg.NICDoorbell {
			t.Errorf("post recv cost %v, want %v", p.Now()-start, cfg.NICDoorbell)
		}
		if qp.RecvPosted() != 1 {
			t.Errorf("posted = %d", qp.RecvPosted())
		}
		start = p.Now()
		if err := a.PostRecvN(p, qp, rnic.PostedRecv{MR: mr}, 64); err != nil {
			t.Fatal(err)
		}
		if p.Now()-start != cfg.NICDoorbell {
			t.Errorf("post of 64 receives cost %v, want one doorbell (%v)", p.Now()-start, cfg.NICDoorbell)
		}
		if qp.RecvPosted() != 65 {
			t.Errorf("posted = %d, want 65", qp.RecvPosted())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Eight busy-polling waiters share one CQ and their completions arrive
// in reverse work-request order, either all at one instant or one at a
// time. Each waiter must get its own completion, resume exactly once —
// when it arrives — and be charged the whole wait; no completion may
// wake a thread it does not belong to.
func TestCompletionWakesOnlyItsOwner(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name   string
		spread simtime.Time // gap between consecutive pushes
		pushes int64        // callback events the pushes take
	}{
		{"one instant", 0, 1},
		{"spread", time.Microsecond, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, _, a, _ := newPair(t)
			cq := a.CreateCQ()
			disp := NewDispatcher(cq)
			start := 10 * time.Microsecond
			pushedAt := func(id uint64) simtime.Time { return start + simtime.Time(n-id)*tc.spread }
			var accts [n + 1]simtime.CPUAccount
			got := make(map[uint64]rnic.CQE)
			for id := uint64(1); id <= n; id++ {
				id := id
				env.Go("waiter", func(p *simtime.Proc) {
					p.SetCPUAccount(&accts[id])
					cqe := disp.Wait(p, id)
					if p.Now() != pushedAt(id) {
						t.Errorf("waiter %d resumed at %v, its completion arrived at %v", id, p.Now(), pushedAt(id))
					}
					got[id] = cqe
				})
			}
			var mark int64
			env.At(start-1, func(e *simtime.Env) {
				mark = e.Events()
				if b := disp.Blocked(); b != n {
					t.Errorf("%d waiters blocked before the pushes, want %d", b, n)
				}
			})
			if tc.spread == 0 {
				env.At(start, func(e *simtime.Env) {
					for id := uint64(n); id >= 1; id-- {
						cq.Push(e, rnic.CQE{WRID: id, Len: int64(id)})
					}
				})
			} else {
				for id := uint64(n); id >= 1; id-- {
					id := id
					env.At(pushedAt(id), func(e *simtime.Env) { cq.Push(e, rnic.CQE{WRID: id, Len: int64(id)}) })
				}
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			for id := uint64(1); id <= n; id++ {
				if cqe := got[id]; cqe.WRID != id || cqe.Len != int64(id) {
					t.Errorf("waiter %d got %+v", id, cqe)
				}
				if busy := accts[id].Busy(); busy != pushedAt(id) {
					t.Errorf("waiter %d charged %v, want its whole %v wait", id, busy, pushedAt(id))
				}
			}
			if events, want := env.Events()-mark, tc.pushes+n; events != want {
				t.Errorf("%d events after the mark, want %d: %d push callbacks and one wakeup per waiter", events, want, tc.pushes)
			}
			if disp.Blocked() != 0 || len(disp.Unclaimed()) != 0 || cq.Len() != 0 {
				t.Errorf("left behind: %d blocked, unclaimed %v, %d queued", disp.Blocked(), disp.Unclaimed(), cq.Len())
			}
		})
	}
}

// A completion that arrives before its waiter asks for it is claimed
// on the spot: no park, no wakeup, no CPU charged.
func TestEarlyCompletionIsClaimedWithoutWake(t *testing.T) {
	env, _, a, _ := newPair(t)
	cq := a.CreateCQ()
	disp := NewDispatcher(cq)
	acct := &simtime.CPUAccount{}
	env.Go("waiter", func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		cq.Push(p.Env(), rnic.CQE{WRID: 3})
		cq.Push(p.Env(), rnic.CQE{WRID: 5})
		p.Sleep(time.Microsecond)
		t0, events := p.Now(), p.Env().Events()
		if cqe := disp.Wait(p, 5); cqe.WRID != 5 {
			t.Errorf("cqe = %+v", cqe)
		}
		if cqe := disp.WaitQuiet(p, 3); cqe.WRID != 3 {
			t.Errorf("cqe = %+v", cqe)
		}
		if p.Now() != t0 || p.Env().Events() != events {
			t.Errorf("claiming arrived completions took %v and %d events", p.Now()-t0, p.Env().Events()-events)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if acct.Busy() != 0 {
		t.Fatalf("claiming arrived completions charged %v", acct.Busy())
	}
}

// A completion nobody waits for wakes nobody: it stays queued until
// TryClaim takes it, exactly once, while a waiter on the same CQ still
// gets its own.
func TestUnregisteredCompletionIsClaimable(t *testing.T) {
	env, _, a, _ := newPair(t)
	cq := a.CreateCQ()
	disp := NewDispatcher(cq)
	env.Go("waiter", func(p *simtime.Proc) {
		if cqe := disp.WaitQuiet(p, 1); cqe.WRID != 1 {
			t.Errorf("waiter got %+v", cqe)
		}
	})
	env.Go("reaper", func(p *simtime.Proc) {
		if _, ok := disp.TryClaim(9); ok {
			t.Error("claimed a completion that has not arrived")
		}
		p.Sleep(2 * time.Microsecond)
		if cqe, ok := disp.TryClaim(9); !ok || cqe.Status != rnic.StatusAccessError {
			t.Errorf("TryClaim(9) = %+v, %v", cqe, ok)
		}
		if _, ok := disp.TryClaim(9); ok {
			t.Error("a completion was claimed twice")
		}
	})
	var events int64
	env.After(time.Microsecond, func(e *simtime.Env) {
		events = e.Events()
		cq.Push(e, rnic.CQE{WRID: 9, Status: rnic.StatusAccessError})
		if e.Events() != events || cq.Len() != 1 || disp.Blocked() != 1 {
			t.Errorf("an unregistered completion woke someone or was not queued (%d queued, %d blocked)", cq.Len(), disp.Blocked())
		}
		cq.Push(e, rnic.CQE{WRID: 1})
		if cq.Len() != 1 || disp.Blocked() != 0 {
			t.Errorf("a registered completion was queued (%d queued, %d blocked)", cq.Len(), disp.Blocked())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Waiter records are pooled: a steady stream of blocking waits on one
// dispatcher allocates nothing.
func TestBlockingWaitDoesNotAllocate(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	env, _, a, _ := newPair(t)
	cq := a.CreateCQ()
	disp := NewDispatcher(cq)
	var wrid uint64
	push := func(e *simtime.Env) { cq.Push(e, rnic.CQE{WRID: wrid}) }
	var allocs float64
	env.Go("waiter", func(p *simtime.Proc) {
		wait := func() {
			wrid++
			// The completion lands later at the same instant, so the
			// event queue's buckets (which a moving clock fills afresh
			// until it has lapped the wheel once) stay warm.
			p.Env().After(0, push)
			disp.Wait(p, wrid)
		}
		wait() // warm the pool, the map and the queues
		allocs = testing.AllocsPerRun(100, wait)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a blocking wait allocates %.1f times", allocs)
	}
}

func TestWaitQuietDoesNotChargeCPU(t *testing.T) {
	env, _, a, _ := newPair(t)
	acct := &simtime.CPUAccount{}
	cq := a.CreateCQ()
	disp := NewDispatcher(cq)
	env.After(20*time.Microsecond, func(e *simtime.Env) {
		cq.Push(e, rnic.CQE{WRID: 1})
	})
	env.Go("waiter", func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		cqe := disp.WaitQuiet(p, 1)
		if cqe.WRID != 1 {
			t.Errorf("cqe = %+v", cqe)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if acct.Busy() != 0 {
		t.Fatalf("WaitQuiet charged %v of CPU", acct.Busy())
	}
}

func TestWaitQuietStashesForeignCompletions(t *testing.T) {
	env, _, a, _ := newPair(t)
	cq := a.CreateCQ()
	disp := NewDispatcher(cq)
	got := make(map[uint64]bool)
	// Two quiet waiters; completions arrive in reverse order.
	for _, id := range []uint64{1, 2} {
		id := id
		env.Go("waiter", func(p *simtime.Proc) {
			p.SetCPUAccount(&simtime.CPUAccount{})
			cqe := disp.WaitQuiet(p, id)
			got[cqe.WRID] = true
		})
	}
	env.After(time.Microsecond, func(e *simtime.Env) {
		cq.Push(e, rnic.CQE{WRID: 2})
		cq.Push(e, rnic.CQE{WRID: 1})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !got[1] || !got[2] {
		t.Fatalf("got = %v", got)
	}
}
