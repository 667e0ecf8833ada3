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

func TestMaskedAddFieldBoundaries(t *testing.T) {
	cases := []struct {
		val, delta, boundary, want uint64
	}{
		// Zero boundary degenerates to a plain 64-bit add.
		{10, 5, 0, 15},
		{^uint64(0), 1, 0, 0},
		// Split at bit 31: two 32-bit fields, low-field carry discarded.
		{0x00000000_ffffffff, 1, 1 << 31, 0},
		{0x00000001_ffffffff, 1, 1 << 31, 1 << 32},
		// High field increments independently.
		{0x00000002_00000005, 1<<32 | 3, 1 << 31, 0x00000003_00000008},
		// Eight 8-bit counters, each saturating mod 256.
		{0x01ff01ff01ff01ff, 0x0101010101010101, 0x8080808080808080, 0x0200020002000200},
	}
	for _, c := range cases {
		if got := maskedAdd(c.val, c.delta, c.boundary); got != c.want {
			t.Errorf("maskedAdd(%#x, %#x, %#x) = %#x, want %#x", c.val, c.delta, c.boundary, got, c.want)
		}
	}
}

func TestMaskedCASRule(t *testing.T) {
	all := ^uint64(0)
	cases := []struct {
		old, cmp, swp, cmpMask, swapMask, want uint64
	}{
		// Plain CAS: both masks all-ones.
		{5, 5, 9, all, all, 9},
		{5, 6, 9, all, all, 5},
		// Compare only the low byte; unmasked compare bits ignored.
		{0xab05, 0xcd05, 0xffff, 0xff, all, 0xffff},
		{0xab05, 0xcd06, 0xffff, 0xff, all, 0xab05},
		// Swap only the high byte of the low 16 bits.
		{0xab05, 5, 0x1200, 0xff, 0xff00, 0x1205},
		// Swap mask zero: a pure compare, the word never changes.
		{0xab05, 5, all, 0xff, 0, 0xab05},
	}
	for _, c := range cases {
		if got := maskedCASNext(c.old, c.cmp, c.swp, c.cmpMask, c.swapMask); got != c.want {
			t.Errorf("maskedCASNext(%#x, %#x, %#x, %#x, %#x) = %#x, want %#x",
				c.old, c.cmp, c.swp, c.cmpMask, c.swapMask, got, c.want)
		}
	}
}

func TestMaskedAtomicsOverWire(t *testing.T) {
	c := newCluster(t, 2)
	mr := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	putWord(t, mr, 0, 0xab05)
	putWord(t, mr, 8, 0x00000000_ffffffff)

	c.env.Go("atomics", func(p *simtime.Proc) {
		var res uint64
		buf := make([]byte, 8)
		post := func(wr WR) uint64 {
			wr.Signaled = true
			wr.Len = 8
			wr.LocalBuf = buf
			wr.AtomicResult = &res
			wr.RemoteKey = mr.Key()
			if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
				t.Fatal(err)
			}
			cqe := qa.SendCQ().Poll(p)
			if cqe.Status != StatusOK {
				t.Fatalf("atomic completion status = %v", cqe.Status)
			}
			return res
		}

		// Masked CAS: compare the low byte only, swap bits 8-15 only.
		old := post(WR{Kind: OpMaskCmpSwap, WRID: 1, RemoteOff: 0,
			Compare: 5, Swap: 0x1200, CompareMask: 0xff, SwapMask: 0xff00})
		if old != 0xab05 {
			t.Errorf("masked CAS returned %#x, want 0xab05", old)
		}
		if got := word(t, mr, 0); got != 0x1205 {
			t.Errorf("word after masked CAS = %#x, want 0x1205", got)
		}
		// The fetched value is also scattered into the local buffer.
		if lb := binary.LittleEndian.Uint64(buf); lb != 0xab05 {
			t.Errorf("local buffer = %#x, want 0xab05", lb)
		}

		// Masked CAS whose compare fails under the mask: no change.
		old = post(WR{Kind: OpMaskCmpSwap, WRID: 2, RemoteOff: 0,
			Compare: 6, Swap: 0xff00, CompareMask: 0xff, SwapMask: 0xff00})
		if old != 0x1205 || word(t, mr, 0) != 0x1205 {
			t.Errorf("failed masked CAS: old=%#x word=%#x, want both 0x1205", old, word(t, mr, 0))
		}

		// Masked FAA with a 32-bit boundary: the low field wraps without
		// carrying into the high field.
		old = post(WR{Kind: OpMaskFetchAdd, WRID: 3, RemoteOff: 8,
			Add: 1, BoundaryMask: 1 << 31})
		if old != 0x00000000_ffffffff {
			t.Errorf("masked FAA returned %#x", old)
		}
		if got := word(t, mr, 8); got != 0 {
			t.Errorf("word after masked FAA = %#x, want 0 (no carry across boundary)", got)
		}

		// Plain CAS still behaves (regression for the shared code path).
		old = post(WR{Kind: OpCmpSwap, WRID: 4, RemoteOff: 8, Compare: 0, Swap: 7})
		if old != 0 || word(t, mr, 8) != 7 {
			t.Errorf("plain CAS: old=%#x word=%#x, want 0 and 7", old, word(t, mr, 8))
		}
	})
	c.run(t)
}

func TestAtomicValidationTypedErrors(t *testing.T) {
	c := newCluster(t, 2)
	mr := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	buf := make([]byte, 16)

	c.env.Go("bad", func(p *simtime.Proc) {
		for _, kind := range []OpKind{OpFetchAdd, OpCmpSwap, OpMaskFetchAdd, OpMaskCmpSwap} {
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
	reg0, reg1 := obs.NewRegistry(0), obs.NewRegistry(1)
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
		// The middle one is a masked CAS validating the first add landed.
		wrs[1] = WR{
			Kind: OpMaskCmpSwap, WRID: 2, Signaled: true, Len: 8,
			LocalBuf: bufs[1], RemoteKey: mr.Key(),
			Compare: 10, Swap: 0, CompareMask: 0xff, SwapMask: 0,
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
	})
	c.run(t)

	if results[0] != 0 || results[1] != 10 || results[2] != 10 {
		t.Errorf("fetched values = %v, want [0 10 10]", results)
	}
	if got := word(t, mr, 0); got != 20 {
		t.Errorf("final word = %d, want 20", got)
	}
	if n := reg0.Counter("rnic.atomic.faa").Value(); n != 2 {
		t.Errorf("rnic.atomic.faa = %d, want 2", n)
	}
	if n := reg0.Counter("rnic.atomic.masked_cas").Value(); n != 1 {
		t.Errorf("rnic.atomic.masked_cas = %d, want 1", n)
	}
	if n := reg1.Counter("rnic.atomic.executed").Value(); n != 3 {
		t.Errorf("rnic.atomic.executed = %d, want 3", n)
	}
}
