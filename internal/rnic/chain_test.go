package rnic

import (
	"encoding/binary"
	"testing"

	"lite/internal/params"
	"lite/internal/simtime"
)

// readChainAcrossWrite posts two READs as one chain — the first bulk
// bytes of the remote region and then just its first word — while the
// responder's CPU overwrites that word from 1 to 2 at instant writeAt.
// It returns the word as each READ saw it. prepare, if set, runs before
// anything is posted (to pre-book responder pipeline stages).
func readChainAcrossWrite(t *testing.T, bulk int64, writeAt simtime.Time, prepare func(c *testCluster)) (first, second uint64) {
	t.Helper()
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, bulk, allPerm)
	qa, _ := c.rcPair(0, 1)
	word := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	if err := dst.WriteAt(0, word(1)); err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(c)
	}
	c.env.Go("responder-cpu", func(p *simtime.Proc) {
		p.Sleep(writeAt)
		if err := dst.WriteAt(0, word(2)); err != nil {
			t.Error(err)
		}
	})
	big, small := make([]byte, bulk), make([]byte, 8)
	c.env.Go("reader", func(p *simtime.Proc) {
		err := c.nic[0].PostSendList(p.Now(), qa, []WR{
			{Kind: OpRead, WRID: 1, Signaled: true, LocalBuf: big, Len: bulk, RemoteKey: dst.Key()},
			{Kind: OpRead, WRID: 2, Signaled: true, LocalBuf: small, Len: 8, RemoteKey: dst.Key()},
		})
		if err != nil {
			t.Error(err)
			return
		}
		// Completions arrive in chain order too.
		for want := uint64(1); want <= 2; want++ {
			if cqe := qa.SendCQ().Poll(p); cqe.WRID != want || cqe.Status != StatusOK {
				t.Errorf("cqe = %+v, want WRID %d OK", cqe, want)
			}
		}
	})
	c.run(t)
	return binary.LittleEndian.Uint64(big), binary.LittleEndian.Uint64(small)
}

// Two READs in one chain execute at the responder in chain order — the
// guarantee a seqlock validated by an ordered read rests on. Sweeping
// the instant of a concurrent write over the whole operation: no
// instant may show the first READ the new word and the second the old
// one, and on an idle responder some instant falls between the two.
func TestReadChainExecutesInOrder(t *testing.T) {
	between := false
	for at := simtime.Time(0); at < 4000; at += 10 {
		first, second := readChainAcrossWrite(t, 8, at, nil)
		if first == 2 && second == 1 {
			t.Fatalf("write at %v: first READ saw the new word, second the old", at)
		}
		between = between || (first == 1 && second == 2)
	}
	if !between {
		t.Error("no write instant fell between the two READs' responder instants")
	}
}

// The pipeline servers fit a short request into an idle gap ahead of
// an earlier, longer one: with the responder's DMA engine booked except
// for a sliver, the 8-byte READ's DMA slot precedes the bulk READ's.
// Inside a chain it must still not execute first. (Posted as two
// separate PostSends the second READ does overtake here — that is what
// makes the scenario a test of the chain rule.)
func TestReadChainOrderSurvivesGapFitting(t *testing.T) {
	book := func(c *testCluster) {
		// Busy from 1 µs to 20 µs but for a 100 ns hole at 3 µs: too
		// short for 32 KB, long enough for 8 bytes.
		c.nic[1].dma.Reserve(1000, 2000)
		c.nic[1].dma.Reserve(3100, 16900)
	}
	for at := simtime.Time(0); at < 30000; at += 50 {
		if first, second := readChainAcrossWrite(t, 32<<10, at, book); first == 2 && second == 1 {
			t.Fatalf("write at %v: second READ executed before the first", at)
		}
	}
}

// An unsignaled chain member that the responder rejects still delivers
// its error completion, and delivers it before the signaled member's.
func TestChainUnsignaledErrorStillCompletes(t *testing.T) {
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("reader", func(p *simtime.Proc) {
		a, b := make([]byte, 8), make([]byte, 8)
		err := c.nic[0].PostSendList(p.Now(), qa, []WR{
			{Kind: OpRead, WRID: 1, LocalBuf: a, Len: 8, RemoteKey: dst.Key() + 99},
			{Kind: OpRead, WRID: 2, Signaled: true, LocalBuf: b, Len: 8, RemoteKey: dst.Key()},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if cqe := qa.SendCQ().Poll(p); cqe.WRID != 1 || cqe.Status != StatusBadKey {
			t.Errorf("first cqe = %+v, want WRID 1 StatusBadKey", cqe)
		}
		if cqe := qa.SendCQ().Poll(p); cqe.WRID != 2 || cqe.Status != StatusOK {
			t.Errorf("second cqe = %+v, want WRID 2 OK", cqe)
		}
	})
	c.run(t)
}

// An unsignaled member lost on the wire times out without a completion
// of its own. RC completes in order, so the chain's signaled member
// must not report success over it: it completes StatusTimeout, no
// earlier than the lost member's transport timeout.
func TestChainLostUnsignaledMemberFailsTheSignaledOne(t *testing.T) {
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	drops := 0
	c.reg.fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
		drops++
		return drops == 1 // the first READ's request
	})
	c.env.Go("reader", func(p *simtime.Proc) {
		a, b := make([]byte, 8), make([]byte, 8)
		start := p.Now()
		err := c.nic[0].PostSendList(p.Now(), qa, []WR{
			{Kind: OpRead, WRID: 1, LocalBuf: a, Len: 8, RemoteKey: dst.Key()},
			{Kind: OpRead, WRID: 2, Signaled: true, LocalBuf: b, Len: 8, RemoteKey: dst.Key()},
		})
		if err != nil {
			t.Error(err)
			return
		}
		cqe := qa.SendCQ().Poll(p)
		if cqe.WRID != 2 || cqe.Status != StatusTimeout {
			t.Errorf("cqe = %+v, want WRID 2 StatusTimeout", cqe)
		}
		if waited := p.Now() - start; waited < c.cfg.RCTimeout {
			t.Errorf("completed after %v, before the %v transport timeout", waited, c.cfg.RCTimeout)
		}
	})
	c.run(t)
}

// lostChainMember posts wrs as one chain from node 0 on a fresh pair
// while the fabric drops the nth packet (counted from 1) that node from
// sends — 1 for the responder's, 0 for the requester's — and returns
// the one completion the chain's signaled member reports, the instant
// it arrived and the instant of the drop.
func lostChainMember(t *testing.T, wrs []WR, from, nth int) (cqe CQE, at, dropped simtime.Time) {
	t.Helper()
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, 256<<10, allPerm)
	qa, qb := c.rcPair(0, 1)
	if err := qb.PostRecvN(PostedRecv{MR: dst}, len(wrs)); err != nil {
		t.Fatal(err)
	}
	sent := 0
	c.reg.fab.SetDropHook(func(now simtime.Time, src, _ int, _ int64) bool {
		if src != from {
			return false
		}
		sent++
		if sent == nth {
			dropped = now
		}
		return sent == nth
	})
	for k := range wrs {
		wrs[k].LocalBuf = make([]byte, wrs[k].Len)
		wrs[k].RemoteKey = dst.Key()
	}
	c.env.Go("reader", func(p *simtime.Proc) {
		if err := c.nic[0].PostSendList(p.Now(), qa, wrs); err != nil {
			t.Error(err)
			return
		}
		cqe = qa.SendCQ().Poll(p)
		at = p.Now()
	})
	c.run(t)
	if dropped == 0 {
		t.Fatalf("the fabric never carried packet %d from node %d", nth, from)
	}
	if n := qa.SendCQ().Len(); n != 0 {
		t.Errorf("%d completions beyond the signaled member's", n)
	}
	if n := out(c.reg); n != 0 {
		t.Errorf("%d payload buffers still out", n)
	}
	return cqe, at, dropped
}

// The chain rule holds when the member that is lost is a multi-packet
// READ whose second response packet is dropped, after its first packet
// went out and the members behind it were held: the signaled member
// behind it completes StatusTimeout, no earlier than the lost member's
// transport timeout. So does a lost single-packet member held behind a
// multi-packet one, a multi-packet signaled member behind a member lost
// at post, and a member that a multi-packet WRITE held until after the
// loss.
func TestChainLostMemberAcrossPackets(t *testing.T) {
	read := func(n int64) WR { return WR{Kind: OpRead, Len: n} }
	for _, tc := range []struct {
		name string
		wrs  []WR // the last member is signaled
		nth  int  // the response packet the fabric drops
	}{
		{"multi-packet member's second packet", []WR{read(8 << 10), read(8)}, 2},
		{"same, one more member held behind it", []WR{read(8 << 10), read(8), read(8)}, 2},
		{"member held behind a multi-packet one", []WR{read(8 << 10), read(8), read(8)}, 3},
		{"multi-packet signaled member behind a lost one", []WR{read(8), read(8 << 10)}, 1},
		{"member released by a WRITE after the loss", []WR{read(8 << 10), {Kind: OpWrite, Len: 64 << 10}, read(8)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrs := tc.wrs
			for k := range wrs {
				wrs[k].WRID = uint64(k + 1)
				wrs[k].RemoteOff = int64(k) * (64 << 10)
			}
			last := len(wrs) - 1
			wrs[last].Signaled = true
			cqe, at, dropped := lostChainMember(t, wrs, 1, tc.nth)
			if cqe.WRID != wrs[last].WRID || cqe.Status != StatusTimeout {
				t.Errorf("cqe = %+v, want WRID %d StatusTimeout", cqe, wrs[last].WRID)
			}
			if timeout := params.Default().RCTimeout; at < dropped+timeout {
				t.Errorf("completed at %v, before the drop at %v plus the %v transport timeout", at, dropped, timeout)
			}
		})
	}
}

// The chain rule holds for WRITEs and WRITE_IMMs too, as LITE's answer
// batches (WRITE_IMM chains with only the last member signaled) need:
// when an unsignaled member's request is lost — its only packet at
// post, or the last packet of a multi-packet member with the rest held
// behind it — the signaled member completes StatusTimeout, no earlier
// than the lost member's transport timeout, never OK.
func TestChainLostWriteMemberFailsTheSignaledOne(t *testing.T) {
	w := func(kind OpKind, n int64) WR { return WR{Kind: kind, Len: n} }
	for _, tc := range []struct {
		name string
		wrs  []WR // the last member is signaled
		nth  int  // the request packet the fabric drops
	}{
		{"WRITE lost at post", []WR{w(OpWrite, 64), w(OpWrite, 64)}, 1},
		{"WRITE's last packet, member held behind it", []WR{w(OpWrite, 8<<10), w(OpWrite, 64)}, 2},
		{"multi-packet member held behind a lost one", []WR{w(OpWrite, 8<<10), w(OpWrite, 8<<10)}, 2},
		{"multi-packet member behind one lost at post", []WR{w(OpWrite, 64), w(OpWrite, 8<<10)}, 1},
		{"WRITE_IMM lost at post", []WR{w(OpWriteImm, 64), w(OpWriteImm, 64)}, 1},
		{"WRITE_IMM's last packet", []WR{w(OpWriteImm, 8<<10), w(OpWriteImm, 64)}, 2},
		{"WRITE_IMM behind a lost WRITE", []WR{w(OpWrite, 8<<10), w(OpWrite, 64), w(OpWriteImm, 64)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrs := tc.wrs
			for k := range wrs {
				wrs[k].WRID = uint64(k + 1)
				wrs[k].RemoteOff = int64(k) * (64 << 10)
			}
			last := len(wrs) - 1
			wrs[last].Signaled = true
			cqe, at, dropped := lostChainMember(t, wrs, 0, tc.nth)
			if cqe.WRID != wrs[last].WRID || cqe.Status != StatusTimeout {
				t.Errorf("cqe = %+v at %v, want WRID %d StatusTimeout", cqe, at, wrs[last].WRID)
			}
			// A request lost at post times out from its post, at 0.
			if tc.nth == 1 {
				dropped = 0
			}
			if timeout := params.Default().RCTimeout; at < dropped+timeout {
				t.Errorf("completed at %v, before the loss at %v plus the %v transport timeout", at, dropped, timeout)
			}
		})
	}
}
