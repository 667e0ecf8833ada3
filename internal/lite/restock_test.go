package lite

import (
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// TestRestockNeverStrandsAQP pins what a scan of every peer's QPs on
// each completion would guarantee, for the low-water dirty list that
// replaces it: after an RPC burst fanned across eight meshed peers,
// every shared QP on every node sits at or above the low-water mark,
// none was over-posted, and the receives LITE posted account exactly
// for the receives the NIC consumed.
func TestRestockNeverStrandsAQP(t *testing.T) {
	const (
		nodes   = 9
		clients = 4
		rounds  = 40
	)
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, nodes, 1<<30)
	cls.EnableObs() // before Start, so the boot-time fill is counted too
	opts := DefaultOptions()
	opts.RecvBatch = 16 // low water 8: the burst crosses it many times per QP
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for node := 1; node < nodes; node++ {
		startEchoServer(cls, dep, node, 2)
	}
	for c := 0; c < clients; c++ {
		c := c
		cls.GoOn(0, "burst", func(p *simtime.Proc) {
			kc := dep.Instance(0).KernelClient()
			in := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				for peer := 1; peer < nodes; peer++ {
					if _, err := kc.RPC(p, (peer+c)%(nodes-1)+1, echoFn, in, 64); err != nil {
						t.Errorf("client %d round %d peer %d: %v", c, r, peer, err)
						return
					}
				}
			}
			// Let trailing head updates land and the pollers drain.
			p.Sleep(simtime.Time(time.Millisecond))
		})
	}
	run(t, cls)

	low := opts.RecvBatch / 2
	for _, inst := range dep.Instances {
		node := inst.node.ID
		var qps, posted int64
		for peer, sigs := range inst.qpSig {
			for k, sig := range sigs {
				n := sig.qp.RecvPosted()
				if n < low || n > opts.RecvBatch {
					t.Errorf("node %d QP %d to peer %d holds %d receives, want %d..%d", node, k, peer, n, low, opts.RecvBatch)
				}
				qps++
				posted += int64(n)
			}
		}
		if len(inst.lowRecv) != 0 {
			t.Errorf("node %d: %d QPs still queued for a restock at quiescence", node, len(inst.lowRecv))
		}
		// Every op the burst delivers to a NIC is a write-imm, and each
		// consumes exactly one posted receive.
		restocked := cls.Nodes[node].Obs.Snapshot().Counters["lite.recv_restock.posted"]
		consumed := inst.node.NIC.OpsDelivered
		if restocked-consumed != posted {
			t.Errorf("node %d: posted %d receives, NIC consumed %d, QPs hold %d (want posted - consumed)", node, restocked, consumed, posted)
		}
		if restocked <= qps*int64(opts.RecvBatch) {
			t.Errorf("node %d: no restock after the boot-time fill (%d receives over %d QPs): the burst is too small to test anything", node, restocked, qps)
		}
	}
}
