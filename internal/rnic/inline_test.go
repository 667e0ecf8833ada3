package rnic

import (
	"bytes"
	"fmt"
	"testing"

	"lite/internal/simtime"
)

// inlineWriteLatency measures one warmed small signaled write with the
// given inline setting and returns its completion latency.
func inlineWriteLatency(t *testing.T, inline bool) simtime.Time {
	t.Helper()
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	var lat simtime.Time
	c.env.Go("writer", func(p *simtime.Proc) {
		msg := []byte("inline wqe payload bytes")
		if err := src.WriteAt(0, msg); err != nil {
			t.Error(err)
		}
		// Warm the NIC SRAM caches so the measured post pays no
		// key/QP misses.
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 99, Signaled: true,
			LocalMR: src, Len: 1, RemoteKey: dst.Key(),
		})
		qa.SendCQ().Poll(p)
		start := p.Now()
		err := c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Signaled: true, Inline: inline,
			LocalMR: src, Len: int64(len(msg)), RemoteKey: dst.Key(), RemoteOff: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		cqe := qa.SendCQ().Poll(p)
		lat = p.Now() - start
		if cqe.Status != StatusOK || cqe.WRID != 1 {
			t.Errorf("cqe = %+v", cqe)
		}
		got := make([]byte, len(msg))
		if err := dst.ReadAt(64, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("remote memory = %q, want %q", got, msg)
		}
	})
	c.run(t)
	return lat
}

// An inline write must still move the data and must complete strictly
// faster than the same write through the DMA-read path: it skips both
// the WQE fetch (cheaper processing) and the payload DMA stage.
func TestInlineWriteFasterAndCorrect(t *testing.T) {
	dma := inlineWriteLatency(t, false)
	inl := inlineWriteLatency(t, true)
	if inl >= dma {
		t.Fatalf("inline write latency %v, want < non-inline %v", inl, dma)
	}
}

func TestInlineValidation(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("poster", func(p *simtime.Proc) {
		err := c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Inline: true,
			LocalMR: src, Len: int64(c.cfg.MaxInline) + 1, RemoteKey: dst.Key(),
		})
		if err != ErrInlineSize {
			t.Errorf("oversized inline: err = %v, want ErrInlineSize", err)
		}
		err = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpRead, WRID: 2, Inline: true,
			LocalMR: src, Len: 8, RemoteKey: dst.Key(),
		})
		if err != ErrInlineKind {
			t.Errorf("inline read: err = %v, want ErrInlineKind", err)
		}
		// Exactly MaxInline is legal.
		err = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 3, Signaled: true, Inline: true,
			LocalMR: src, Len: int64(c.cfg.MaxInline), RemoteKey: dst.Key(),
		})
		if err != nil {
			t.Errorf("MaxInline-sized inline: %v", err)
		}
		qa.SendCQ().Poll(p)
	})
	c.run(t)
}

// A post list is validated in full before anything is dispatched: a
// malformed entry anywhere in the chain posts nothing.
func TestPostSendListValidatesWholeChain(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("poster", func(p *simtime.Proc) {
		if err := c.nic[0].PostSendList(p.Now(), qa, nil); err != ErrEmptyList {
			t.Errorf("empty list: err = %v, want ErrEmptyList", err)
		}
		before := c.nic[0].OpsPosted
		wrs := []WR{
			{Kind: OpWrite, WRID: 1, LocalMR: src, Len: 8, RemoteKey: dst.Key()},
			{Kind: OpWrite, WRID: 2, LocalMR: src, Len: int64(c.cfg.MaxInline) + 1, Inline: true, RemoteKey: dst.Key()},
		}
		if err := c.nic[0].PostSendList(p.Now(), qa, wrs); err != ErrInlineSize {
			t.Errorf("bad chain: err = %v, want ErrInlineSize", err)
		}
		if c.nic[0].OpsPosted != before {
			t.Errorf("bad chain dispatched %d ops, want 0", c.nic[0].OpsPosted-before)
		}
	})
	c.run(t)
}

// A valid chain posts all entries at one doorbell time; only the WRs
// marked signaled produce CQEs, and every write lands.
func TestPostSendListChainCompletes(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("poster", func(p *simtime.Proc) {
		const n = 3
		var wrs []WR
		for k := 0; k < n; k++ {
			msg := []byte(fmt.Sprintf("chain entry %d", k))
			if err := src.WriteAt(int64(k*64), msg); err != nil {
				t.Error(err)
			}
			wrs = append(wrs, WR{
				Kind: OpWrite, WRID: uint64(k + 1),
				LocalMR: src, LocalOff: int64(k * 64), Len: int64(len(msg)),
				RemoteKey: dst.Key(), RemoteOff: int64(k * 64),
				Signaled: k == n-1, Inline: true,
			})
		}
		if err := c.nic[0].PostSendList(p.Now(), qa, wrs); err != nil {
			t.Fatal(err)
		}
		cqe := qa.SendCQ().Poll(p)
		if cqe.WRID != n || cqe.Status != StatusOK {
			t.Errorf("cqe = %+v, want WRID %d OK", cqe, n)
		}
		if got, ok := qa.SendCQ().TryPoll(); ok {
			t.Errorf("unsignaled WR produced CQE %+v", got)
		}
		for k := 0; k < n; k++ {
			want := []byte(fmt.Sprintf("chain entry %d", k))
			got := make([]byte, len(want))
			if err := dst.ReadAt(int64(k*64), got); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("entry %d: remote = %q, want %q", k, got, want)
			}
		}
	})
	c.run(t)
}

func TestPostRecvList(t *testing.T) {
	c := newCluster(t, 2)
	mrA := c.physMR(t, 0, 4096, allPerm)
	mrB := c.physMR(t, 1, 4096, allPerm)
	_, qb := c.rcPair(0, 1)

	if err := qb.PostRecvList(nil); err != ErrEmptyList {
		t.Errorf("empty list: err = %v, want ErrEmptyList", err)
	}
	// An MR from another node anywhere in the batch rejects the whole
	// batch.
	bad := []PostedRecv{
		{MR: mrB, Len: 0},
		{MR: mrA, Len: 0},
	}
	if err := qb.PostRecvList(bad); err != ErrBadMR {
		t.Errorf("foreign MR: err = %v, want ErrBadMR", err)
	}
	if qb.RecvPosted() != 0 {
		t.Errorf("rejected batch left %d receives posted", qb.RecvPosted())
	}
	rs := make([]PostedRecv, 5)
	for k := range rs {
		rs[k] = PostedRecv{MR: mrB, Off: int64(k * 64), Len: 0}
	}
	if err := qb.PostRecvList(rs); err != nil {
		t.Fatal(err)
	}
	if qb.RecvPosted() != 5 {
		t.Errorf("RecvPosted = %d, want 5", qb.RecvPosted())
	}
}

// PostRecvN is n single posts of one entry behind one doorbell: it
// rejects a bad entry, and a post leaves the same count and the same
// runs as the single posts.
func TestPostRecvN(t *testing.T) {
	c := newCluster(t, 2)
	mrA := c.physMR(t, 0, 4096, allPerm)
	mrB := c.physMR(t, 1, 4096, allPerm)
	_, qb := c.rcPair(0, 1)

	for _, n := range []int{0, -1} {
		if err := qb.PostRecvN(PostedRecv{MR: mrB}, n); err != ErrEmptyList {
			t.Errorf("n = %d: err = %v, want ErrEmptyList", n, err)
		}
	}
	if err := qb.PostRecvN(PostedRecv{MR: mrA}, 3); err != ErrBadMR {
		t.Errorf("foreign MR: err = %v, want ErrBadMR", err)
	}
	if err := qb.PostRecvN(PostedRecv{MR: mrB, Off: 4000, Len: 200}, 3); err == nil {
		t.Error("range past the MR's end accepted")
	}
	if qb.RecvPosted() != 0 {
		t.Errorf("rejected posts left %d receives posted", qb.RecvPosted())
	}

	// The same posts, once per form: an IMM run, one extending it, then
	// a different buffer.
	imm, buf := PostedRecv{MR: mrB}, PostedRecv{MR: mrB, Off: 64, Len: 64, WRID: 7}
	_, listQP := c.rcPair(0, 1)
	for _, post := range []struct {
		r PostedRecv
		n int
	}{{imm, 300}, {imm, 212}, {buf, 4}} {
		if err := qb.PostRecvN(post.r, post.n); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < post.n; k++ {
			if err := listQP.PostRecv(post.r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if qb.RecvPosted() != 516 || listQP.RecvPosted() != 516 {
		t.Errorf("RecvPosted = %d (N) and %d (single), want 516", qb.RecvPosted(), listQP.RecvPosted())
	}
	got, want := qb.rq[qb.rqHead:], listQP.rq[listQP.rqHead:]
	if len(got) != 2 || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("runs = %+v (N), %+v (single); want the same two runs", got, want)
	}
}
