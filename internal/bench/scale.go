package bench

import (
	"fmt"

	"lite/internal/apps/litelog"
	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("fig14", "Scalability of LITE RDMA and RPC with cluster size", fig14)
	register("log-tput", "LITE-Log transaction commit throughput (8.1)", logTput)
}

// clusterWriteRate runs 8 threads per node doing 64B LT_writes to
// random peers, after a warm-up quarter and a rendezvous, and returns
// the timed window.
func clusterWriteRate(n int) (simtime.Time, error) {
	cls, dep, err := newLITE(n)
	if err != nil {
		return 0, err
	}
	w := newWindow(n*fig14Threads, fig14WriteOps/4, fig14WriteOps, true)
	// One 1MB LMR per node, written by everyone else.
	for node := 0; node < n; node++ {
		cls.GoOn(node, "setup", func(p *simtime.Proc) {
			c := dep.Instance(node).KernelClient()
			if _, err := c.Malloc(p, 1<<20, fmt.Sprintf("f14-%d", node), lite.PermRead|lite.PermWrite); err != nil {
				return
			}
			// Wait for all allocations, then map every peer.
			if err := c.Barrier(p, 0xF14, n); err != nil {
				return
			}
			lhs := make([]lite.LH, n)
			for t := range lhs {
				h, err := c.Map(p, fmt.Sprintf("f14-%d", t))
				if err != nil {
					return
				}
				lhs[t] = h
			}
			for th := 0; th < fig14Threads; th++ {
				cls.GoOn(node, "writer", func(q *simtime.Proc) {
					qc := dep.Instance(node).KernelClient()
					buf := make([]byte, 64)
					rng := xorshift(uint64(node*fig14Threads+th)*2654435761 + 11)
					w.run(q, func() error {
						h := lhs[fig14Peer(&rng, node, n)]
						_ = qc.Write(q, h, int64(rng.next()%(1<<20-64)), buf)
						return nil
					})
				})
			}
		})
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return w.elapsed()
}

// clusterRPCRate runs 8 client threads per node issuing 64B->8B RPCs
// to random peers (every node also serves), after a warm-up quarter and
// a rendezvous, and returns the timed window.
func clusterRPCRate(n int) (simtime.Time, error) {
	cls, dep, err := newLITE(n)
	if err != nil {
		return 0, err
	}
	for node := 0; node < n; node++ {
		if err := serveEcho(dep, node, fig14Threads); err != nil {
			return 0, err
		}
	}
	w := newWindow(n*fig14Threads, fig14RPCOps/4, fig14RPCOps, true)
	for node := 0; node < n; node++ {
		for th := 0; th < fig14Threads; th++ {
			cls.GoOn(node, "client", func(q *simtime.Proc) {
				c := dep.Instance(node).KernelClient()
				rng := xorshift(uint64(node*fig14Threads+th)*40503 + 3)
				in := rpcInput(64, 8)
				w.run(q, func() error {
					_, _ = c.RPC(q, fig14Peer(&rng, node, n), benchFn, in, 64)
					return nil
				})
			})
		}
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return w.elapsed()
}

// fig14 load: 8 threads per node; ops per thread.
const (
	fig14Threads  = 8
	fig14WriteOps = 150
	fig14RPCOps   = 120
)

// fig14Peer draws a random peer of node other than itself.
func fig14Peer(rng *xorshift, node, n int) int {
	t := int(rng.next() % uint64(n))
	if t == node {
		t = (t + 1) % n
	}
	return t
}

func fig14() (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Scalability with cluster size (8 threads/node; 64B LT_write; 64B->8B LT_RPC)",
		Header: []string{"Nodes", "LT_write (req/us)", "LT_RPC (req/us)"},
	}
	var rows []fig14Row
	for _, n := range []int{2, 4, 6, 8} {
		w, err := clusterWriteRate(n)
		if err != nil {
			return nil, err
		}
		r, err := clusterRPCRate(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), reqPerUs(int64(n*fig14Threads*fig14WriteOps), w), reqPerUs(int64(n*fig14Threads*fig14RPCOps), r))
		perNode := func(ops int, d simtime.Time) float64 { return float64(fig14Threads*ops) / (float64(d) / 1000) }
		rows = append(rows, fig14Row{n, perNode(fig14WriteOps, w), perNode(fig14RPCOps, r)})
	}
	t.Note("paper: both scale near-linearly with node count on K x N shared QPs")
	return t, fig14Shape(rows)
}

func logTput() (*Table, error) {
	t := &Table{
		ID:     "log-tput",
		Title:  "LITE-Log single-entry (16B) transaction commits/s",
		Header: []string{"Writer nodes", "Commits/s"},
	}
	for _, writers := range []int{2, 4, 8} {
		rate, err := logCommitRate(writers)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", writers), fmt.Sprintf("%.0f", rate))
	}
	t.Note("paper: ~833K commits/s with two nodes; scales with nodes and transaction size")
	return t, nil
}

func logCommitRate(writers int) (float64, error) {
	cls, dep, err := newLITE(writers + 1)
	if err != nil {
		return 0, err
	}
	const threadsPerNode = 4
	const ops = 120
	w := newWindow(writers*threadsPerNode, ops/4, ops, true)
	var ready simtime.WaitGroup
	ready.Add(1)
	cls.GoOn(0, "creator", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := litelog.Create(p, c, 0, 64<<20, "bench-log"); err != nil {
			return
		}
		ready.Done(p.Env())
	})
	for wn := 1; wn <= writers; wn++ {
		for th := 0; th < threadsPerNode; th++ {
			cls.GoOn(wn, "committer", func(q *simtime.Proc) {
				ready.Wait(q)
				lg, err := litelog.Open(q, dep.Instance(wn).KernelClient(), "bench-log", 64<<20)
				if err != nil {
					w.run(q, func() error { return err })
					return
				}
				entry := [][]byte{make([]byte, 16)}
				w.run(q, func() error {
					_, _ = lg.Append(q, entry)
					return nil
				})
			})
		}
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	el, err := w.elapsed()
	if err != nil {
		return 0, err
	}
	return float64(writers*threadsPerNode*ops) / el.Seconds(), nil
}
