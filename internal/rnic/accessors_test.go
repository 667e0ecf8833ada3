package rnic

import (
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

func TestAccessorsAndStrings(t *testing.T) {
	c := newCluster(t, 2)
	nic := c.nic[0]
	if nic.Node() != 0 || nic.Registry() != c.reg || nic.Mem() != c.nic[0].Mem() {
		t.Fatal("NIC accessors inconsistent")
	}
	if c.reg.Config() != &c.cfg || c.reg.NIC(1) != c.nic[1] {
		t.Fatal("registry accessors inconsistent")
	}
	if c.reg.NIC(99) != nil {
		t.Fatal("unknown node should return nil NIC")
	}

	mr := c.physMR(t, 0, 8192, PermRead)
	if mr.Size() != 8192 || !mr.Phys() {
		t.Fatalf("MR accessors: %d %v", mr.Size(), mr.Phys())
	}
	if got, ok := nic.LookupMR(mr.Key()); !ok || got != mr {
		t.Fatal("LookupMR failed")
	}
	if _, ok := nic.LookupMR(9999); ok {
		t.Fatal("LookupMR found a ghost")
	}
	if nic.MRCount() != 1 {
		t.Fatalf("MRCount = %d", nic.MRCount())
	}

	cq := nic.CreateCQ()
	if cq.Len() != 0 {
		t.Fatal("fresh CQ state wrong")
	}
	qp := nic.CreateQP(RC, cq, cq)
	if qp.SendCQ() != cq || qp.RecvCQ() != cq {
		t.Fatal("QP accessors inconsistent")
	}
	if nic.QPCount() != 1 {
		t.Fatalf("QPCount = %d", nic.QPCount())
	}

	if nic.QPCountByOwner("test/qp") != 0 {
		t.Fatal("fresh QP should be untagged")
	}
	qp.SetOwner("test/qp")
	if nic.QPCountByOwner("test/qp") != 1 || nic.QPCountByOwner("ghost") != 0 {
		t.Fatal("QPCountByOwner wrong")
	}

	for _, k := range []OpKind{OpWrite, OpWriteImm, OpRead, OpSend, OpRecv, OpFetchAdd, OpCmpSwap, OpKind(99)} {
		if k.String() == "" {
			t.Fatalf("OpKind %d has empty String", k)
		}
	}
	for _, s := range []Status{StatusOK, StatusAccessError, StatusTimeout, StatusRNRExceeded, StatusLengthError, StatusBadKey, Status(99)} {
		if s.String() == "" {
			t.Fatalf("Status %d has empty String", s)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	c := newCluster(t, 2)
	local := c.physMR(t, 0, 4096, allPerm)
	foreign := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	unconnected := c.nic[0].CreateQP(RC, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())

	cases := []struct {
		name string
		qp   *QP
		wr   WR
		want error
	}{
		{"unconnected RC", unconnected, WR{Kind: OpWrite, LocalMR: local, Len: 8}, ErrBadQPState},
		{"foreign local MR", qa, WR{Kind: OpWrite, LocalMR: foreign, Len: 8}, ErrBadMR},
		{"local bounds", qa, WR{Kind: OpWrite, LocalMR: local, LocalOff: 4090, Len: 64}, ErrBounds},
		{"atomic size", qa, WR{Kind: OpFetchAdd, LocalMR: local, Len: 4}, ErrAtomicSize},
		{"missing local MR", qa, WR{Kind: OpWrite, Len: 8}, ErrBadMR},
		{"SEND on RC", qa, WR{Kind: OpSend, LocalMR: local, Len: 8}, ErrBadQPState},
		{"short LocalBuf", qa, WR{Kind: OpWrite, LocalBuf: make([]byte, 4), Len: 8}, ErrBounds},
	}
	for _, tc := range cases {
		if err := c.nic[0].PostSend(0, tc.qp, tc.wr); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestCQPollTimeout(t *testing.T) {
	c := newCluster(t, 1)
	cq := c.nic[0].CreateCQ()
	c.env.Go("poller", func(p *simtime.Proc) {
		start := p.Now()
		if _, ok := cq.PollTimeout(p, 5*time.Microsecond); ok {
			t.Error("poll on empty CQ succeeded")
		}
		if p.Now()-start != 5*time.Microsecond {
			t.Errorf("timeout at %v", p.Now()-start)
		}
		// Push after a waiter arms; the poll succeeds.
		p.Env().After(2*time.Microsecond, func(e *simtime.Env) {
			cq.Push(e, CQE{WRID: 42})
		})
		cqe, ok := cq.PollTimeout(p, 10*time.Microsecond)
		if !ok || cqe.WRID != 42 {
			t.Errorf("cqe = %+v ok=%v", cqe, ok)
		}
	})
	c.run(t)
}

// A completion the delivery hook takes is neither queued nor wakes a
// poller; one it declines is queued and wakes one as usual.
func TestCQDeliverHook(t *testing.T) {
	c := newCluster(t, 1)
	cq := c.nic[0].CreateCQ()
	var taken []uint64
	cq.SetDeliver(func(_ *simtime.Env, cqe CQE) bool {
		if cqe.WRID%2 == 0 {
			taken = append(taken, cqe.WRID)
			return true
		}
		return false
	})
	c.env.Go("poller", func(p *simtime.Proc) {
		if cqe := cq.Poll(p); cqe.WRID != 3 {
			t.Errorf("poller got %+v, want the declined completion 3", cqe)
		}
	})
	c.env.After(time.Microsecond, func(e *simtime.Env) {
		cq.Push(e, CQE{WRID: 2})
		if cq.Len() != 0 {
			t.Error("a taken completion was queued")
		}
		cq.Push(e, CQE{WRID: 3})
	})
	c.run(t)
	if len(taken) != 1 || taken[0] != 2 || cq.Len() != 0 {
		t.Fatalf("taken %v, %d left queued", taken, cq.Len())
	}
}

func TestCQWaitAndBroadcast(t *testing.T) {
	c := newCluster(t, 1)
	cq := c.nic[0].CreateCQ()
	woken := 0
	for i := 0; i < 3; i++ {
		c.env.Go("waiter", func(p *simtime.Proc) {
			cq.Wait(p)
			woken++
		})
	}
	c.env.Go("caster", func(p *simtime.Proc) {
		p.Sleep(time.Microsecond)
		cq.Broadcast(p.Env())
	})
	c.run(t)
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestWriteImmRNRExceededReportsError(t *testing.T) {
	// A signaled write-imm to a QP that never posts receives must
	// complete in error after the retry budget.
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWriteImm, WRID: 5, Signaled: true,
			LocalMR: src, Len: 8, RemoteKey: dst.Key(), Imm: 1,
		})
		cqe := qa.SendCQ().Poll(p)
		if cqe.Status != StatusRNRExceeded {
			t.Errorf("status = %v, want RNR_EXCEEDED", cqe.Status)
		}
	})
	c.run(t)
}

// A datagram longer than the receive it finds is dropped: the sender
// completes locally as ever, the receiver sees nothing, and the drop is
// counted.
func TestSendBufferTooSmall(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	rbuf := c.physMR(t, 1, 4096, allPerm)
	qa := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
	qb := c.nic[1].CreateQP(UD, c.nic[1].CreateCQ(), c.nic[1].CreateCQ())
	dom := obs.NewDomain(2)
	c.nic[1].SetObs(dom.Node(1))
	_ = qb.PostRecv(PostedRecv{MR: rbuf, Len: 8, WRID: 3}) // too small for 64B
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpSend, WRID: 1, Signaled: true, LocalMR: src, Len: 64,
			DestNode: 1, DestQPN: qb.QPN(),
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("send status = %v, want OK", cqe.Status)
		}
		p.Sleep(10 * time.Microsecond)
		if n := qb.RecvCQ().Len(); n != 0 {
			t.Errorf("%d receive completions for a datagram that did not fit", n)
		}
		if n := dom.Total("rnic.ud_drops"); n != 1 {
			t.Errorf("rnic.ud_drops = %d, want 1", n)
		}
	})
	c.run(t)
}

func TestZeroLengthWriteImm(t *testing.T) {
	// Pure-IMM notifications (LITE's head updates) carry no payload.
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, 4096, allPerm)
	imm := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)
	_ = qb.PostRecv(PostedRecv{MR: imm, Len: 0, WRID: 1})
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWriteImm, Signaled: false, Len: 0,
			RemoteKey: dst.Key(), Imm: 0xABCD,
		})
	})
	c.env.Go("receiver", func(p *simtime.Proc) {
		cqe := qb.RecvCQ().Poll(p)
		if !cqe.HasImm || cqe.Imm != 0xABCD || cqe.Len != 0 {
			t.Errorf("cqe = %+v", cqe)
		}
	})
	c.run(t)
}

func TestUDToWrongQPTypeDropped(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	// Destination QPN exists but is RC, not UD: datagram silently lost.
	_, qb := c.rcPair(0, 1)
	qa := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpSend, WRID: 1, Signaled: true, LocalMR: src, Len: 16,
			DestNode: 1, DestQPN: qb.QPN(),
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("UD send local status = %v", cqe.Status)
		}
		p.Sleep(10 * time.Microsecond)
		if qb.RecvCQ().Len() != 0 {
			t.Error("RC QP received a UD datagram")
		}
	})
	c.run(t)
}

func TestPipelineBusyAndCacheStats(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("w", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Signaled: true, LocalMR: src, Len: 64, RemoteKey: dst.Key(),
		})
		qa.SendCQ().Poll(p)
	})
	c.run(t)
	tx, rx, dma := c.nic[0].PipelineBusy()
	if tx == 0 || rx == 0 || dma == 0 {
		t.Fatalf("pipelines unused: %v %v %v", tx, rx, dma)
	}
	_, misses := c.nic[1].keyCache.Stats()
	if misses == 0 {
		t.Fatal("remote key cache never missed (cold start expected)")
	}
}
