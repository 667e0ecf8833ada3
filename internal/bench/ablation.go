package bench

import (
	"fmt"
	"time"

	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Ablations probe the design choices DESIGN.md calls out: the K in the
// K x N shared-QP budget (§6.1), LITE's adaptive poll window (§5.2),
// the physically contiguous chunk size behind large LMRs (§4.1), and
// the RPC ring size (§5.1).
func init() {
	register("abl-qp", "Ablation: shared QPs per node pair (K) vs write throughput", ablQP)
	register("abl-window", "Ablation: adaptive poll window vs RPC latency and CPU", ablWindow)
	register("abl-chunk", "Ablation: LMR chunk size vs large-transfer throughput (4.1's <2% claim)", ablChunk)
	register("abl-ring", "Ablation: RPC ring size vs 16-client throughput", ablRing)
}

func ablQP() (*Table, error) {
	t := &Table{
		ID:     "abl-qp",
		Title:  "Shared QPs per node pair (K) vs 48-thread 64B write throughput",
		Header: []string{"K", "Throughput (req/us)", "Outstanding-op budget"},
	}
	for _, k := range []int{1, 2, 4, 8} {
		opts := lite.DefaultOptions()
		opts.QPsPerPair = k
		cls, dep, err := newLITEOpts(2, opts)
		if err != nil {
			return nil, err
		}
		// Oversubscribe the per-QP outstanding-op budget so K is the
		// binding resource.
		const threads, ops = 48, 80
		w := newWindow(threads, 0, ops, false)
		err = runProc(cls, 0, "setup", func(p *simtime.Proc) error {
			h, err := dep.Instance(0).KernelClient().MallocAt(p, []int{1}, 1<<20, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return err
			}
			for th := 0; th < threads; th++ {
				cls.GoOn(0, "writer", func(q *simtime.Proc) {
					qc := dep.Instance(0).KernelClient()
					buf := make([]byte, 64)
					w.run(q, func() error { return qc.Write(q, h, 0, buf) })
				})
			}
			w.wait(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
		last, err := w.elapsed()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), reqPerUs(int64(threads*ops), last),
			fmt.Sprintf("%d", k*16))
	}
	t.Note("throughput is insensitive to K: the NIC pipeline, not the QP budget, is the binding resource — which is why LITE can serve a whole node on K x N shared QPs (paper 6.1: 1<=K<=4 suffices)")
	return t, nil
}

func ablWindow() (*Table, error) {
	t := &Table{
		ID:     "abl-window",
		Title:  "Adaptive poll window vs 8B RPC latency and CPU per light-load request",
		Header: []string{"Window (us)", "RPC latency (us)", "CPU/req at 60us gaps (us)"},
	}
	var rows []windowRow
	for _, w := range []time.Duration{1 * time.Microsecond, 4 * time.Microsecond, 8 * time.Microsecond, 25 * time.Microsecond, 100 * time.Microsecond} {
		cfg := params.Default()
		cfg.AdaptivePollWindow = w
		lat, err := rpcLatency(liteRPC(cfg, lite.DefaultOptions(), 2, false), 50, rpcInput(8, 64), 72)
		if err != nil {
			return nil, err
		}
		const nReq = 400
		cpu, err := fixedRateCPU(liteRPC(cfg, lite.DefaultOptions(), 2, true), 1, nReq, 60*time.Microsecond, rpcInput(16, 64), 128)
		if err != nil {
			return nil, err
		}
		rows = append(rows, windowRow{window: w, lat: lat, cpu: cpu / nReq})
		t.AddRow(fmt.Sprintf("%.0f", float64(w)/1000), us(lat), us(cpu/nReq))
	}
	t.Note("small windows add wakeup latency to every RPC; large windows burn CPU at light load — 5.2's tradeoff")
	return t, ablWindowShape(rows)
}

func ablChunk() (*Table, error) {
	t := &Table{
		ID:     "abl-chunk",
		Title:  "LMR chunk size vs 64MB LMR write throughput (1MB sequential writes)",
		Header: []string{"Chunk (MB)", "Throughput (GB/s)", "Chunks"},
	}
	const lmrSize = 64 << 20
	const writeSize = 1 << 20
	const ops = 128
	for _, chunkMB := range []int64{1, 4, 16, 64} {
		opts := lite.DefaultOptions()
		opts.MaxChunkBytes = chunkMB << 20
		cls, dep, err := newLITEOpts(2, opts)
		if err != nil {
			return nil, err
		}
		var elapsed simtime.Time
		err = runProc(cls, 0, "writer", func(p *simtime.Proc) error {
			c := dep.Instance(0).KernelClient()
			h, err := c.MallocAt(p, []int{1}, lmrSize, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return err
			}
			buf := make([]byte, writeSize)
			start := p.Now()
			for i := 0; i < ops; i++ {
				off := int64(i) % (lmrSize / writeSize) * writeSize
				if err := c.Write(p, h, off, buf); err != nil {
					return err
				}
			}
			elapsed = p.Now() - start
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", chunkMB), gbps(ops*writeSize, elapsed),
			fmt.Sprintf("%d", lmrSize/(chunkMB<<20)))
	}
	t.Note("paper 4.1: chunking large LMRs into small physically contiguous pieces costs under 2 percent vs one huge region")
	return t, nil
}

func ablRing() (*Table, error) {
	t := &Table{
		ID:     "abl-ring",
		Title:  "RPC ring size vs 16-client RPC throughput (4KB inputs ride the ring)",
		Header: []string{"Ring (KB)", "Throughput (GB/s)"},
	}
	for _, ringKB := range []int64{8, 32, 128, 1024} {
		opts := lite.DefaultOptions()
		opts.RingBytes = ringKB << 10
		const clients, ops, inSize = 16, 120, 4096
		last, err := rpcThroughput(liteRPC(params.Default(), opts, clients, false), newWindow(clients, 0, ops, false), rpcInput(inSize, 8), 64)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", ringKB), gbps(int64(clients*ops*inSize), last))
	}
	t.Note("tiny rings stall clients on head-update flow control; beyond a few tens of KB the ring is off the critical path")
	return t, nil
}
