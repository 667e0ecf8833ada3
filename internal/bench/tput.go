package bench

import (
	"fmt"

	"lite/internal/simtime"
)

func init() {
	register("tput", "LT_RPC throughput vs size and threads on the small-message fast path (Fig 7 shape)", tput)
}

// litePathThroughput measures the aggregate LT_RPC rate of `clients`
// threads sending inputSize-byte requests (8-byte replies), using the
// same rendezvous discipline as fig11: the clock starts when every
// thread has completed a warmup call. It also reports how many
// ring-credit work requests the server posted per call over the whole
// run (read back from the lite.ring.credit_wr counter, so the cluster's
// observability domain is switched on; that never moves the virtual
// timeline).
func litePathThroughput(inputSize, clients, opsPerClient int) (simtime.Time, float64, error) {
	const replySize = 8
	cls, dep, err := newLITE(2)
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
// throughput versus request size with inline WQEs, doorbell-batched
// post lists and selective signaling.
func tput() (*Table, error) {
	t := &Table{
		ID:     "tput",
		Title:  "LT_RPC throughput vs request size (8B replies) on the small-message fast path",
		Header: []string{"Input (B)", "Threads", "Throughput (req/us)", "Credit WRs per RPC"},
	}
	const ops = 150
	for _, size := range []int{8, 64, 256, 1024, 4096} {
		for _, clients := range []int{1, 8} {
			el, credits, err := litePathThroughput(size, clients, ops)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", clients),
				reqPerUs(int64(clients*ops), el), fmt.Sprintf("%.2f", credits))
		}
	}
	t.Note("credit WRs per RPC: ring head updates the server posted, per call; one ships per quarter ring consumed (256 KB of the 1 MB ring), not per call, so LT_RPC is two work requests")
	t.Note("requests <= MaxInline (256B) ride inline in the WQE; larger ones pay the NIC's payload DMA read")
	return t, nil
}
