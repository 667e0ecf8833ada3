package bench

import (
	"fmt"

	"lite/internal/cluster"
	"lite/internal/obs"
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
	var dom *obs.Domain
	withObs := func() (*cluster.Cluster, func() rpcCall, error) {
		cls, dial, err := defaultLITE(clients, false)()
		if err == nil {
			dom = cls.EnableObs()
		}
		return cls, dial, err
	}
	el, err := rpcThroughput(withObs, newWindow(clients, 1, opsPerClient, true), rpcInput(inputSize, 8), 16)
	if err != nil {
		return 0, 0, err
	}
	credits := float64(dom.Total("lite.ring.credit_wr")) / float64(dom.Total("lite.rpc.calls"))
	return el, credits, nil
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
