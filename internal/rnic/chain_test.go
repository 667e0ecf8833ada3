package rnic

import (
	"encoding/binary"
	"testing"

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
