package bench

import (
	"fmt"

	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("tput", "LT_RPC throughput vs size and threads: fast path vs per-WR posting (Fig 7 shape)", tput)
}

// perWROptions disables every small-message fast-path lever: payloads
// always take the DMA read, every post rings its own doorbell
// (including the 512-buffer receive restocks), and every send is
// signaled. This is what the stack looked like before the fast path
// and is the baseline the speedup column measures against.
func perWROptions() lite.Options {
	o := lite.DefaultOptions()
	o.DisableInline = true
	o.DisableDoorbellBatch = true
	o.SignalEvery = 1
	return o
}

// litePathThroughput measures the aggregate LT_RPC rate of `clients`
// threads sending inputSize-byte requests (8-byte replies) under the
// given LITE options, using the same rendezvous discipline as fig11:
// the clock starts when every thread has completed a warmup call. It
// also reports how many ring-credit work requests the server posted per
// call over the whole run (read back from the lite.ring.credit_wr
// counter, so the cluster's observability domain is switched on; that
// never moves the virtual timeline).
func litePathThroughput(opts lite.Options, inputSize, clients, opsPerClient int) (simtime.Time, float64, error) {
	const replySize = 8
	cls, dep, err := newLITEOpts(2, opts)
	if err != nil {
		return 0, 0, err
	}
	dom := cls.EnableObs()
	startLITEEcho(cls, dep, 1, clients)
	var done, started simtime.WaitGroup
	done.Add(clients)
	started.Add(clients)
	var measStart, last simtime.Time
	var firstErr error
	for th := 0; th < clients; th++ {
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			defer done.Done(p.Env())
			startedDone := false
			markStarted := func() {
				if !startedDone {
					startedDone = true
					started.Done(p.Env())
				}
			}
			defer markStarted()
			c := dep.Instance(0).KernelClient()
			in := rpcInput(inputSize, replySize)
			if _, err := c.RPC(p, 1, benchFn, in, replySize+8); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			markStarted()
			started.Wait(p)
			if measStart == 0 {
				measStart = p.Now()
			}
			for i := 0; i < opsPerClient; i++ {
				if _, err := c.RPC(p, 1, benchFn, in, replySize+8); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := cls.Run(); err != nil {
		return 0, 0, err
	}
	if firstErr != nil {
		return 0, 0, firstErr
	}
	credits := float64(dom.Total("lite.ring.credit_wr")) / float64(dom.Total("lite.rpc.calls"))
	return last - measStart, credits, nil
}

// tput is the small-message fast-path experiment: multi-thread LT_RPC
// throughput versus request size, once with the fast path on (inline
// WQEs, doorbell-batched post lists, selective signaling — the
// defaults) and once with per-WR posting, at equal offered load.
func tput() (*Table, error) {
	t := &Table{
		ID:     "tput",
		Title:  "LT_RPC throughput vs request size (8B replies): fast path vs per-WR posting",
		Header: []string{"Input (B)", "Threads", "Fast path (req/us)", "Per-WR (req/us)", "Speedup", "Credit WRs per RPC"},
	}
	const ops = 150
	fast := lite.DefaultOptions()
	perWR := perWROptions()
	for _, size := range []int{8, 64, 256, 1024, 4096} {
		for _, clients := range []int{1, 8} {
			ef, credits, err := litePathThroughput(fast, size, clients, ops)
			if err != nil {
				return nil, err
			}
			ew, _, err := litePathThroughput(perWR, size, clients, ops)
			if err != nil {
				return nil, err
			}
			n := int64(clients * ops)
			t.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", clients),
				reqPerUs(n, ef), reqPerUs(n, ew),
				fmt.Sprintf("%.2fx", float64(ew)/float64(ef)),
				fmt.Sprintf("%.2f", credits))
		}
	}
	t.Note("per-WR = DisableInline + DisableDoorbellBatch + SignalEvery=1: every payload takes the DMA read, every post (including 512-buffer recv restocks) rings its own doorbell, every send is signaled")
	t.Note("credit WRs per RPC (fast path): ring head updates the server posted, per call; one ships per quarter ring consumed (256 KB of the 1 MB ring), not per call, so LT_RPC is two work requests")
	t.Note("requests <= MaxInline (256B) ride inline in the WQE; the gap narrows at 1KB+ where the payload DMA dominates either way")
	return t, nil
}
