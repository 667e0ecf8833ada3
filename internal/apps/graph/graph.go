// Package graph implements the paper's graph-engine comparison (§8.3,
// Figure 19): LITE-Graph, a PowerGraph-design engine whose 20 lines of
// network code are LITE calls (LT_read/LT_write for global data,
// LT_lock for protected updates, LT_barrier between the gather, apply,
// and scatter steps, with delta caching); a PowerGraph-style baseline
// exchanging fine-grained messages over the TCP/IP (IPoIB) stack; a
// Grappa-style baseline that aggregates messages into large batches on
// a latency-tolerant stack; and LITE-Graph-DSM, the same engine on top
// of LITE-DSM (§8.4). All run PageRank with identical computational
// kernels.
package graph

import (
	"math"
	"time"

	"lite/internal/simtime"
	"lite/internal/workload"
)

// Config controls a PageRank run.
type Config struct {
	// Nodes lists the participating cluster nodes.
	Nodes []int
	// ThreadsPerNode is the number of compute threads per node.
	ThreadsPerNode int
	// Iterations is the number of PageRank iterations.
	Iterations int
	// Damping is the PageRank damping factor.
	Damping float64

	// GatherPerEdge is the per-in-edge compute cost.
	GatherPerEdge simtime.Time
	// ApplyPerVertex is the per-vertex apply cost.
	ApplyPerVertex simtime.Time
	// PartitionsPerNode controls lock granularity in LITE-Graph
	// (splitting global data into more LMRs increases parallelism,
	// §8.5).
	PartitionsPerNode int
}

// DefaultConfig returns the standard cost model for the given nodes.
func DefaultConfig(nodes []int, threads, iterations int) Config {
	return Config{
		Nodes:             nodes,
		ThreadsPerNode:    threads,
		Iterations:        iterations,
		Damping:           0.85,
		GatherPerEdge:     5 * time.Nanosecond,
		ApplyPerVertex:    20 * time.Nanosecond,
		PartitionsPerNode: threads,
	}
}

// Result reports a PageRank run.
type Result struct {
	Ranks []float64
	Time  simtime.Time
}

// ranksClose reports whether two rank vectors agree within tolerance.
func ranksClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// ownedRange returns the vertex range [lo, hi) owned by node index
// idx out of parts.
func ownedRange(n, parts, idx int) (int, int) {
	per := (n + parts - 1) / parts
	lo := idx * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// computeRange runs the gather+apply kernel for vertices [lo, hi),
// reading the global contrib vector and writing new ranks, charging
// the compute cost model.
func computeRange(p *simtime.Proc, cfg *Config, gt *workload.Graph, contrib []float64, lo, hi int, base float64, out []float64) {
	edges := 0
	for v := lo; v < hi; v++ {
		var sum float64
		nbrs := gt.OutNeighbors(v)
		edges += len(nbrs)
		for _, u := range nbrs {
			sum += contrib[u]
		}
		out[v] = base + cfg.Damping*sum
	}
	p.Work(cfg.GatherPerEdge*simtime.Time(edges) + cfg.ApplyPerVertex*simtime.Time(hi-lo))
}

// contribFor fills contrib[lo:hi] from ranks and out-degrees.
func contribFor(g *workload.Graph, ranks []float64, lo, hi int, contrib []float64) {
	for v := lo; v < hi; v++ {
		if d := g.OutDegree(v); d > 0 {
			contrib[v] = ranks[v] / float64(d)
		} else {
			contrib[v] = 0
		}
	}
}

// float64 (de)serialization for shipping contrib slices.

func floatsToBytes(f []float64, buf []byte) []byte {
	need := len(f) * 8
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	for i, v := range f {
		bits := math.Float64bits(v)
		buf[8*i+0] = byte(bits)
		buf[8*i+1] = byte(bits >> 8)
		buf[8*i+2] = byte(bits >> 16)
		buf[8*i+3] = byte(bits >> 24)
		buf[8*i+4] = byte(bits >> 32)
		buf[8*i+5] = byte(bits >> 40)
		buf[8*i+6] = byte(bits >> 48)
		buf[8*i+7] = byte(bits >> 56)
	}
	return buf
}

func bytesToFloats(buf []byte, f []float64) {
	n := len(buf) / 8
	if n > len(f) {
		n = len(f)
	}
	for i := 0; i < n; i++ {
		bits := uint64(buf[8*i]) | uint64(buf[8*i+1])<<8 | uint64(buf[8*i+2])<<16 |
			uint64(buf[8*i+3])<<24 | uint64(buf[8*i+4])<<32 | uint64(buf[8*i+5])<<40 |
			uint64(buf[8*i+6])<<48 | uint64(buf[8*i+7])<<56
		f[i] = math.Float64frombits(bits)
	}
}
