package rnic

import (
	"testing"

	"lite/internal/allocbudget"
	"lite/internal/simtime"
)

// benchmarkPostSend measures the host-side (wall-clock) allocation
// cost of posting one signaled write and reaping its CQE. The payload
// snapshot comes from the registry's pool and every deferred step is a
// pooled record, so neither path allocates per operation
// (TestPostSendAllocBudget pins that). Run with:
//
//	go test -bench=PostSend -benchmem ./internal/rnic/
func benchmarkPostSend(b *testing.B, inline bool) {
	c := newCluster(b, 2)
	src := c.physMR(b, 0, 4096, allPerm)
	dst := c.physMR(b, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("poster", func(p *simtime.Proc) {
		wr := WR{
			Kind: OpWrite, Signaled: true, Inline: inline,
			LocalMR: src, Len: 64, RemoteKey: dst.Key(),
		}
		// Warm SRAM caches, then measure steady state.
		_ = c.nic[0].PostSend(p.Now(), qa, wr)
		qa.SendCQ().Poll(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wr.WRID = uint64(i + 1)
			if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
				b.Fatal(err)
			}
			qa.SendCQ().Poll(p)
		}
	})
	if err := c.env.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPostSendInline(b *testing.B) { benchmarkPostSend(b, true) }
func BenchmarkPostSendDMA(b *testing.B)    { benchmarkPostSend(b, false) }

// TestPostSendAllocBudget pins the steady state of benchmarkPostSend
// and of the other verbs LITE posts: posting a signaled request and
// reaping its completion allocates nothing, for a 64 B WRITE (inline or
// not), READ and WRITE_IMM, and for a 64 KB WRITE and READ, which cross
// the wire as MTU packets.
func TestPostSendAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	for _, tc := range []struct {
		kind   OpKind
		size   int64
		inline bool
	}{
		{OpWrite, 64, true}, {OpWrite, 64, false}, {OpRead, 64, false},
		{OpWriteImm, 64, false}, {OpWrite, 64 << 10, false}, {OpRead, 64 << 10, false},
	} {
		c := newCluster(t, 2)
		src := c.physMR(t, 0, 64<<10, allPerm)
		dst := c.physMR(t, 1, 64<<10, allPerm)
		qa, qb := c.rcPair(0, 1)
		if err := qb.PostRecvN(PostedRecv{MR: dst}, 1<<20); err != nil {
			t.Fatal(err)
		}
		c.env.Go("poster", func(p *simtime.Proc) {
			wr := WR{
				Kind: tc.kind, Signaled: true, Inline: tc.inline,
				LocalMR: src, Len: tc.size, RemoteKey: dst.Key(),
			}
			post := func() {
				wr.WRID++
				if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
					t.Fatal(err)
				}
				if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
					t.Fatalf("%v of %d B: cqe = %+v", tc.kind, tc.size, cqe)
				}
			}
			// Warm the caches, the pools and one lap of the event wheel.
			for i := 0; i < 2000; i++ {
				post()
			}
			if allocs := testing.AllocsPerRun(2000, post); allocs > 0 {
				t.Errorf("%v of %d B, inline=%v: %.0f allocations per post, want 0", tc.kind, tc.size, tc.inline, allocs)
			}
		})
		c.run(t)
	}
}

// TestQPCacheMissAllocBudget posts round-robin over more QPs than the
// NIC's QP-context cache holds, so every post misses that cache at
// both ends and evicts an entry. A miss reuses the evicted entry's
// slot, so it allocates nothing either.
func TestQPCacheMissAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qps := make([]*QP, c.cfg.QPCacheEntries+1)
	for k := range qps {
		qps[k], _ = c.rcPair(0, 1)
	}
	c.env.Go("poster", func(p *simtime.Proc) {
		wr := WR{
			Kind: OpWrite, Signaled: true, Inline: true,
			LocalMR: src, Len: 64, RemoteKey: dst.Key(),
		}
		next := 0
		post := func() {
			qp := qps[next]
			next = (next + 1) % len(qps)
			wr.WRID++
			if err := c.nic[0].PostSend(p.Now(), qp, wr); err != nil {
				t.Fatal(err)
			}
			qp.SendCQ().Poll(p)
		}
		// Warm the pools, every QP's queues and one lap of the event
		// wheel.
		for i := 0; i < max(2000, 4*len(qps)); i++ {
			post()
		}
		_, before := c.nic[0].qpCache.Stats()
		const runs = 2000
		if allocs := testing.AllocsPerRun(runs, post); allocs > 0 {
			t.Errorf("%.0f allocations per post, want 0", allocs)
		}
		if _, after := c.nic[0].qpCache.Stats(); after-before < runs {
			t.Errorf("%d QP-cache misses over %d posts: the loop must miss on every post", after-before, runs)
		}
	})
	c.run(t)
}
