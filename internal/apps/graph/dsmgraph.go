package graph

import (
	"lite/internal/apps/dsm"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
	"lite/internal/workload"
)

// RunDSM executes PageRank on LITE-Graph-DSM: the same engine design
// as LITE-Graph, but the globally shared contribution vector lives in
// LITE-DSM and is accessed with plain loads and stores (page faults
// pull remote pages; release pushes dirty pages home and multicasts
// invalidations). The paper finds it slower than LITE-Graph — the
// extra DSM layer — but still far ahead of PowerGraph (§8.4).
func RunDSM(cls *cluster.Cluster, dep *lite.Deployment, cfg Config, g *workload.Graph) (*Result, error) {
	runID := int(dep.NextAppSeq()) // deployment-scoped: see NextAppSeq
	n := g.NumVertices
	gt := g.Transpose()
	nodes := cfg.Nodes
	res := &Result{Ranks: make([]float64, n)}
	errs := make([]error, len(nodes))
	barrierID := uint64(0xD000 + runID*64)

	var sys *dsm.System
	var bootErr error
	booted := false
	var bootCond simtime.Cond

	// Page-align each node's slot so no shared page has two writers
	// (the MRSW discipline LITE-DSM requires).
	dcfg := dsm.DefaultConfig()
	per := (n + len(nodes) - 1) / len(nodes)
	slotBytes := (int64(per*8) + dcfg.PageSize - 1) / dcfg.PageSize * dcfg.PageSize

	for idx, node := range nodes {
		idx, node := idx, node
		cls.GoOn(node, "dsmgraph", func(p *simtime.Proc) {
			if idx == 0 {
				sys, bootErr = dsm.Boot(p, cls, dep, nodes, slotBytes*int64(len(nodes)), dcfg)
				booted = true
				bootCond.Broadcast(p.Env())
				if bootErr != nil {
					return
				}
			} else {
				for !booted {
					bootCond.Wait(p)
				}
				if bootErr != nil {
					return
				}
			}
			errs[idx] = dsmGraphNode(p, cls, dep, &cfg, barrierID, g, gt, sys, idx, node, slotBytes, res)
		})
	}
	start := cls.Env.Now()
	if err := cls.Run(); err != nil {
		return nil, err
	}
	if bootErr != nil {
		return nil, bootErr
	}
	res.Time = cls.Env.Now() - start
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func dsmGraphNode(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, barrierID uint64, g, gt *workload.Graph, sys *dsm.System, idx, node int, slotBytes int64, res *Result) error {
	c := dep.Instance(node).KernelClient()
	d := sys.Node(node)
	nodes := cfg.Nodes
	n := g.NumVertices
	lo, hi := ownedRange(n, len(nodes), idx)

	ranks := make([]float64, n)
	contrib := make([]float64, n)
	for v := lo; v < hi; v++ {
		ranks[v] = 1.0 / float64(n)
	}
	base := (1 - cfg.Damping) / float64(n)
	var buf []byte

	for it := 0; it < cfg.Iterations; it++ {
		// Publish own contributions as stores into this node's
		// page-aligned DSM slot.
		contribFor(g, ranks, lo, hi, contrib)
		buf = floatsToBytes(contrib[lo:hi], buf)
		d.Acquire(p)
		if len(buf) > 0 {
			if err := d.Write(p, int64(idx)*slotBytes, buf); err != nil {
				return err
			}
		}
		if err := d.Release(p); err != nil {
			return err
		}
		if err := c.Barrier(p, barrierID, len(nodes)); err != nil {
			return err
		}

		// Load every peer's slot; invalidated pages fault and re-fetch
		// from their homes.
		d.Acquire(p)
		for j := range nodes {
			jlo, jhi := ownedRange(n, len(nodes), j)
			if jhi == jlo {
				continue
			}
			slot := make([]byte, (jhi-jlo)*8)
			if err := d.Read(p, int64(j)*slotBytes, slot); err != nil {
				return err
			}
			bytesToFloats(slot, contrib[jlo:jhi])
		}

		next := make([]float64, n)
		threads := cfg.ThreadsPerNode
		var wg simtime.WaitGroup
		wg.Add(threads)
		for th := 0; th < threads; th++ {
			tlo, thi := ownedRange(hi-lo, threads, th)
			tlo, thi = tlo+lo, thi+lo
			cls.GoOn(node, "dsmgraph-compute", func(q *simtime.Proc) {
				defer wg.Done(q.Env())
				computeRange(q, cfg, gt, contrib, tlo, thi, base, next)
			})
		}
		wg.Wait(p)
		copy(ranks[lo:hi], next[lo:hi])
		if err := c.Barrier(p, barrierID, len(nodes)); err != nil {
			return err
		}
	}
	copy(res.Ranks[lo:hi], ranks[lo:hi])
	return nil
}
