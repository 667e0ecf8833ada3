package graph

import (
	"encoding/binary"
	"fmt"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
	"lite/internal/workload"
)

// RunLITE executes PageRank on LITE-Graph. Each node owns a contiguous
// vertex range; per-iteration contribution vectors live in named LMRs
// (one per node plus an 8-byte version header used for delta caching);
// threads update their partitions under LT_locks; LT_barrier separates
// the gather/apply/scatter steps. The graph structure is replicated,
// as PowerGraph replicates structure via vertex mirrors — only rank
// data crosses the network.
func RunLITE(cls *cluster.Cluster, dep *lite.Deployment, cfg Config, g *workload.Graph) (*Result, error) {
	runID := int(dep.NextAppSeq()) // deployment-scoped: see NextAppSeq
	n := g.NumVertices
	gt := g.Transpose()
	nodes := cfg.Nodes
	res := &Result{Ranks: make([]float64, n)}
	errs := make([]error, len(nodes))

	barrierID := uint64(0xB000 + runID*64)

	for idx, node := range nodes {
		idx, node := idx, node
		cls.GoOn(node, "litegraph", func(p *simtime.Proc) {
			errs[idx] = liteGraphNode(p, cls, dep, &cfg, runID, barrierID, g, gt, idx, node, res)
		})
	}
	start := cls.Env.Now()
	if err := cls.Run(); err != nil {
		return nil, err
	}
	res.Time = cls.Env.Now() - start
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func liteGraphNode(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, runID int, barrierID uint64, g, gt *workload.Graph, idx, node int, res *Result) error {
	c := dep.Instance(node).KernelClient()
	n := g.NumVertices
	nodes := cfg.Nodes
	lo, hi := ownedRange(n, len(nodes), idx)

	// Publish this node's contribution LMR and version header.
	name := fmt.Sprintf("pg%d-contrib-%d", runID, idx)
	ownBytes := int64((hi - lo) * 8)
	if ownBytes == 0 {
		ownBytes = 8
	}
	ownLH, err := c.Malloc(p, ownBytes, name, lite.PermRead|lite.PermWrite)
	if err != nil {
		return err
	}
	verLH, err := c.Malloc(p, 8, name+".ver", lite.PermRead|lite.PermWrite)
	if err != nil {
		return err
	}
	// Locks protecting this node's partitions of the global data.
	locks := make([]lite.Lock, cfg.PartitionsPerNode)
	for k := range locks {
		lk, err := c.AllocLock(p, node)
		if err != nil {
			return err
		}
		locks[k] = lk
	}
	if err := c.Barrier(p, barrierID, len(nodes)); err != nil {
		return err
	}
	// Map every peer's LMRs.
	peersLH := make([]lite.LH, len(nodes))
	peersVer := make([]lite.LH, len(nodes))
	for j := range nodes {
		if j == idx {
			continue
		}
		pn := fmt.Sprintf("pg%d-contrib-%d", runID, j)
		h, err := c.Map(p, pn)
		if err != nil {
			return err
		}
		v, err := c.Map(p, pn+".ver")
		if err != nil {
			return err
		}
		peersLH[j], peersVer[j] = h, v
	}

	ranks := make([]float64, n)
	contrib := make([]float64, n)
	lastVer := make([]uint64, len(nodes))
	for v := lo; v < hi; v++ {
		ranks[v] = 1.0 / float64(n)
	}
	base := (1 - cfg.Damping) / float64(n)
	var buf []byte

	for it := 0; it < cfg.Iterations; it++ {
		// Scatter: publish own contributions under the partition locks
		// and bump the version header (delta caching metadata).
		contribFor(g, ranks, lo, hi, contrib)
		buf = floatsToBytes(contrib[lo:hi], buf)
		per := (len(buf) + len(locks) - 1) / len(locks)
		for k := range locks {
			a := k * per
			b := a + per
			if a >= len(buf) {
				break
			}
			if b > len(buf) {
				b = len(buf)
			}
			if err := c.LockAcquire(p, locks[k]); err != nil {
				return err
			}
			if err := c.Write(p, ownLH, int64(a), buf[a:b]); err != nil {
				return err
			}
			if err := c.LockRelease(p, locks[k]); err != nil {
				return err
			}
		}
		var verBuf [8]byte
		binary.LittleEndian.PutUint64(verBuf[:], uint64(it+1))
		if err := c.Write(p, verLH, 0, verBuf[:]); err != nil {
			return err
		}
		if err := c.Barrier(p, barrierID, len(nodes)); err != nil {
			return err
		}

		// Gather inputs: bulk-read peers' contributions in parallel,
		// skipping any whose version header is unchanged (delta
		// caching).
		fetchErrs := make([]error, len(nodes))
		var fwg simtime.WaitGroup
		for j := range nodes {
			if j == idx {
				continue
			}
			j := j
			fwg.Add(1)
			cls.GoOn(node, "litegraph-fetch", func(q *simtime.Proc) {
				defer fwg.Done(q.Env())
				qc := dep.Instance(node).KernelClient()
				var vb [8]byte
				if err := qc.Read(q, peersVer[j], 0, vb[:]); err != nil {
					fetchErrs[j] = err
					return
				}
				ver := binary.LittleEndian.Uint64(vb[:])
				jlo, jhi := ownedRange(n, len(nodes), j)
				if ver == lastVer[j] || jhi == jlo {
					return // unchanged since last fetch
				}
				lastVer[j] = ver
				rb := make([]byte, (jhi-jlo)*8)
				if err := qc.Read(q, peersLH[j], 0, rb); err != nil {
					fetchErrs[j] = err
					return
				}
				bytesToFloats(rb, contrib[jlo:jhi])
			})
		}
		fwg.Wait(p)
		for _, err := range fetchErrs {
			if err != nil {
				return err
			}
		}

		// Apply: compute owned ranks on the node's threads.
		next := make([]float64, n)
		threads := cfg.ThreadsPerNode
		var wg simtime.WaitGroup
		wg.Add(threads)
		for th := 0; th < threads; th++ {
			tlo, thi := ownedRange(hi-lo, threads, th)
			tlo, thi = tlo+lo, thi+lo
			cls.GoOn(node, "litegraph-compute", func(q *simtime.Proc) {
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
