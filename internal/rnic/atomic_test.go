package rnic

import (
	"encoding/binary"
	"errors"
	"testing"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// word reads the 8-byte word at off of mr.
func word(t *testing.T, mr *MR, off int64) uint64 {
	t.Helper()
	var b [8]byte
	if err := mr.ReadAt(off, b[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

func putWord(t *testing.T, mr *MR, off int64, v uint64) {
	t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if err := mr.WriteAt(off, b[:]); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicValidationTypedErrors(t *testing.T) {
	c := newCluster(t, 2)
	mr := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	buf := make([]byte, 16)

	c.env.Go("bad", func(p *simtime.Proc) {
		for _, kind := range []OpKind{OpFetchAdd, OpCmpSwap} {
			// Wrong size.
			err := c.nic[0].PostSend(p.Now(), qa, WR{
				Kind: kind, Len: 16, LocalBuf: buf, RemoteKey: mr.Key()})
			if !errors.Is(err, ErrAtomicSize) {
				t.Errorf("%v with Len=16: err = %v, want ErrAtomicSize", kind, err)
			}
			// Misaligned remote address.
			err = c.nic[0].PostSend(p.Now(), qa, WR{
				Kind: kind, Len: 8, LocalBuf: buf, RemoteKey: mr.Key(), RemoteOff: 4})
			if !errors.Is(err, ErrAtomicAlign) {
				t.Errorf("%v at offset 4: err = %v, want ErrAtomicAlign", kind, err)
			}
			// Atomics cannot be inline: the WQE carries operands, not payload.
			err = c.nic[0].PostSend(p.Now(), qa, WR{
				Kind: kind, Len: 8, LocalBuf: buf, RemoteKey: mr.Key(), Inline: true})
			if !errors.Is(err, ErrInlineKind) {
				t.Errorf("inline %v: err = %v, want ErrInlineKind", kind, err)
			}
		}
		// A batched chain with one malformed atomic posts nothing.
		err := c.nic[0].PostSendList(p.Now(), qa, []WR{
			{Kind: OpFetchAdd, WRID: 1, Len: 8, LocalBuf: buf, RemoteKey: mr.Key(), Add: 1},
			{Kind: OpCmpSwap, WRID: 2, Len: 8, LocalBuf: buf, RemoteKey: mr.Key(), RemoteOff: 4},
		})
		if !errors.Is(err, ErrAtomicAlign) {
			t.Errorf("chain with misaligned CAS: err = %v, want ErrAtomicAlign", err)
		}
		if got := word(t, mr, 0); got != 0 {
			t.Errorf("word changed to %#x by a rejected chain", got)
		}
	})
	c.run(t)
}

// TestConcurrentCASOneWinner races two CASes from different nodes at
// the same word with the same expected value: the responder NIC's rx
// pipeline serializes them, so exactly one must win and the loser must
// observe the winner's value.
func TestConcurrentCASOneWinner(t *testing.T) {
	c := newCluster(t, 3)
	mr := c.physMR(t, 2, 4096, allPerm)
	q02, _ := c.rcPair(0, 2)
	q12, _ := c.rcPair(1, 2)

	olds := make([]uint64, 2)
	for i, qp := range []*QP{q02, q12} {
		i, qp := i, qp
		src := i
		c.env.Go("racer", func(p *simtime.Proc) {
			var res uint64
			buf := make([]byte, 8)
			err := c.nic[src].PostSend(p.Now(), qp, WR{
				Kind: OpCmpSwap, WRID: 1, Signaled: true, Len: 8,
				LocalBuf: buf, RemoteKey: mr.Key(),
				Compare: 0, Swap: uint64(i) + 1,
				AtomicResult: &res,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if cqe := qp.SendCQ().Poll(p); cqe.Status != StatusOK {
				t.Errorf("racer %d status %v", i, cqe.Status)
			}
			olds[i] = res
		})
	}
	c.run(t)

	winners := 0
	final := word(t, mr, 0)
	for i, old := range olds {
		if old == 0 {
			winners++
			if final != uint64(i)+1 {
				t.Errorf("racer %d won but word = %d", i, final)
			}
		} else if old != final {
			t.Errorf("loser %d fetched %d, want the winner's value %d", i, old, final)
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1 (olds = %v)", winners, olds)
	}
}

// TestAtomicBatchedDoorbell posts a chain of atomics in one doorbell:
// they execute in order at the responder, each observing the previous
// result, and the atomic obs counters record every posting and
// execution.
func TestAtomicBatchedDoorbell(t *testing.T) {
	c := newCluster(t, 2)
	regs2 := obs.NewDomain(2)
	reg0, reg1 := regs2.Node(0), regs2.Node(1)
	c.nic[0].SetObs(reg0)
	c.nic[1].SetObs(reg1)
	mr := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	results := make([]uint64, 3)
	c.env.Go("batch", func(p *simtime.Proc) {
		bufs := make([][]byte, 3)
		wrs := make([]WR, 3)
		for i := range wrs {
			bufs[i] = make([]byte, 8)
			wrs[i] = WR{
				Kind: OpFetchAdd, WRID: uint64(i + 1), Signaled: true, Len: 8,
				LocalBuf: bufs[i], RemoteKey: mr.Key(), Add: 10,
				AtomicResult: &results[i],
			}
		}
		// The middle one is a CAS that leaves the word as it is, which
		// validates that the first add landed.
		wrs[1] = WR{
			Kind: OpCmpSwap, WRID: 2, Signaled: true, Len: 8,
			LocalBuf: bufs[1], RemoteKey: mr.Key(),
			Compare: 10, Swap: 10,
			AtomicResult: &results[1],
		}
		if err := c.nic[0].PostSendList(p.Now(), qa, wrs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
				t.Fatalf("completion %d status %v", i, cqe.Status)
			}
		}
		// The fetched value is also scattered into the local buffer.
		for i, b := range bufs {
			if lb := binary.LittleEndian.Uint64(b); lb != results[i] {
				t.Errorf("local buffer %d = %d, want the fetched %d", i, lb, results[i])
			}
		}
	})
	c.run(t)

	if results[0] != 0 || results[1] != 10 || results[2] != 10 {
		t.Errorf("fetched values = %v, want [0 10 10]", results)
	}
	if got := word(t, mr, 0); got != 20 {
		t.Errorf("final word = %d, want 20", got)
	}
	if n := reg0.Snapshot().Counters["rnic.atomic.faa"]; n != 2 {
		t.Errorf("rnic.atomic.faa = %d, want 2", n)
	}
	if n := reg0.Snapshot().Counters["rnic.atomic.cas"]; n != 1 {
		t.Errorf("rnic.atomic.cas = %d, want 1", n)
	}
	if n := reg1.Snapshot().Counters["rnic.atomic.executed"]; n != 3 {
		t.Errorf("rnic.atomic.executed = %d, want 3", n)
	}
}
