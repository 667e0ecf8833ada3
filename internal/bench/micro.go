package bench

import (
	"fmt"

	"lite/internal/cluster"
	"lite/internal/hostmem"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/verbs"
)

func init() {
	register("fig4", "RDMA write latency vs number of (L)MRs (64B writes, 4KB regions)", fig4)
	register("fig5", "RDMA write throughput vs total (L)MR size (4 threads)", fig5)
	register("fig6", "Write latency vs request size: Verbs, LITE (kernel/user), TCP/IP", fig6)
	register("fig7", "Write throughput vs request size, 1 and 8 threads", fig7)
	register("fig8", "(De)registration latency vs size: Verbs pin/unpin vs LT_map/LT_unmap", fig8)
}

// openVerbs opens a verbs context, each with its own address space, on
// nodes 0 and 1 of cls.
func openVerbs(cls *cluster.Cluster) (local, remote *verbs.Context) {
	open := func(n int) *verbs.Context {
		return verbs.Open(cls.Nodes[n].NIC, hostmem.NewAddressSpace(cls.Nodes[n].Mem))
	}
	return open(0), open(1)
}

// verbsRegion maps size bytes into ctx's address space and registers
// them as one MR.
func verbsRegion(p *simtime.Proc, ctx *verbs.Context, size int64) (*rnic.MR, error) {
	va, err := ctx.AddressSpace().Map(size)
	if err != nil {
		return nil, err
	}
	return ctx.RegisterMR(p, va, size, rnic.PermRead|rnic.PermWrite)
}

// verbsWriter connects a fresh RC QP from local to remote and returns a
// blocking write over it: post wr as a signaled RDMA write, then wait
// for its completion.
func verbsWriter(local, remote *verbs.Context) func(p *simtime.Proc, wr rnic.WR) error {
	qa, _ := verbs.ConnectRC(local, remote)
	disp := verbs.NewDispatcher(qa.SendCQ())
	return func(p *simtime.Proc, wr rnic.WR) error {
		wr.Kind, wr.Signaled = rnic.OpWrite, true
		if err := local.PostSend(p, qa, wr); err != nil {
			return err
		}
		disp.Wait(p, wr.WRID)
		return nil
	}
}

// verbsWriteLatency measures the mean blocking write latency against
// nMRs 4KB virtual regions at the remote node, after a warm-up quarter.
func verbsWriteLatency(nMRs, ops int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	var out simtime.Time
	err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
		local, remote := openVerbs(cls)
		src, err := verbsRegion(p, local, 4096)
		if err != nil {
			return err
		}
		mrs := make([]*rnic.MR, nMRs)
		for i := range mrs {
			if mrs[i], err = verbsRegion(p, remote, 4096); err != nil {
				return err
			}
		}
		write := verbsWriter(local, remote)
		rng := xorshift(12345)
		out, err = meanLatency(p, ops/4, ops, func(i int) error {
			mr := mrs[rng.next()%uint64(nMRs)]
			return write(p, rnic.WR{WRID: uint64(i + 1), LocalMR: src, Len: 64, RemoteKey: mr.Key()})
		})
		return err
	})
	return out, err
}

// liteWriteLatency measures mean LT_write latency against nLMRs 4KB
// LMRs homed at the remote node, after a warm-up quarter.
func liteWriteLatency(nLMRs, ops int) (simtime.Time, error) {
	cls, dep, err := newLITE(2)
	if err != nil {
		return 0, err
	}
	var out simtime.Time
	err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
		c := dep.Instance(0).KernelClient()
		lhs := make([]lite.LH, nLMRs)
		for i := range lhs {
			h, err := c.MallocAt(p, []int{1}, 4096, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return err
			}
			lhs[i] = h
		}
		buf := make([]byte, 64)
		rng := xorshift(777)
		out, err = meanLatency(p, ops/4, ops, func(int) error {
			return c.Write(p, lhs[rng.next()%uint64(nLMRs)], 0, buf)
		})
		return err
	})
	return out, err
}

func fig4() (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "RDMA write latency vs number of (L)MRs (64B writes to random 4KB regions)",
		Header: []string{"#(L)MRs", "Verbs write (us)", "LITE_write (us)"},
	}
	counts := []int{10, 100, 1000, 10000, 50000}
	var rows []fig4Row
	for _, n := range counts {
		ops := 1000
		v, err := verbsWriteLatency(n, ops)
		if err != nil {
			return nil, err
		}
		l, err := liteWriteLatency(n, ops)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), us(v), us(l))
		rows = append(rows, fig4Row{n, v, l})
	}
	t.Note("paper: Verbs degrades past ~100 MRs (NIC key-cache thrash); LITE stays flat (one global physical MR)")
	return t, fig4Shape(rows)
}

// writeThroughput measures blocking-write throughput with the given
// thread count against one region of the given size, excluding setup:
// every thread first runs a warm-up quarter, all threads rendezvous,
// and only the timed ops count.
func writeThroughput(liteSide bool, size int64, writeSize int, threads, opsPerThread int) (simtime.Time, error) {
	var cls *cluster.Cluster
	// writers sets up the region on node 1 (in the setup proc) and
	// returns each writer thread's random-offset seed and write op.
	type writeOp = func(q *simtime.Proc, off int64) error
	var writers func(p *simtime.Proc) (func(th int) (uint64, writeOp), error)
	if liteSide {
		lcls, dep, err := newLITE(2)
		if err != nil {
			return 0, err
		}
		cls = lcls
		writers = func(p *simtime.Proc) (func(int) (uint64, writeOp), error) {
			h, err := dep.Instance(0).KernelClient().MallocAt(p, []int{1}, size, "", lite.PermRead|lite.PermWrite)
			return func(th int) (uint64, writeOp) {
				qc, buf := dep.Instance(0).KernelClient(), make([]byte, writeSize)
				return uint64(th)*7919 + 13, func(q *simtime.Proc, off int64) error { return qc.Write(q, h, off, buf) }
			}, err
		}
	} else {
		bcls, err := newBare(2)
		if err != nil {
			return 0, err
		}
		cls = bcls
		writers = func(p *simtime.Proc) (func(int) (uint64, writeOp), error) {
			local, remote := openVerbs(cls)
			rmr, err := verbsRegion(p, remote, size)
			if err != nil {
				return nil, err
			}
			src, err := verbsRegion(p, local, int64(writeSize)+4096)
			return func(th int) (uint64, writeOp) {
				write := verbsWriter(local, remote)
				var wrid uint64
				return uint64(th)*104729 + 7, func(q *simtime.Proc, off int64) error {
					wrid++
					return write(q, rnic.WR{WRID: uint64(th+1)<<32 | wrid, LocalMR: src, Len: int64(writeSize),
						RemoteKey: rmr.Key(), RemoteOff: off})
				}
			}, err
		}
	}
	w := newWindow(threads, opsPerThread/4, opsPerThread, true)
	err := runProc(cls, 0, "setup", func(p *simtime.Proc) error {
		writer, err := writers(p)
		if err != nil {
			return err
		}
		for th := 0; th < threads; th++ {
			seed, write := writer(th)
			cls.GoOn(0, "writer", func(q *simtime.Proc) {
				rng := xorshift(seed)
				w.run(q, func() error { return write(q, int64(rng.next()%uint64(size-int64(writeSize)))) })
			})
		}
		w.wait(p)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return w.elapsed()
}

func fig5() (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Write throughput vs total (L)MR size (4 threads, random writes)",
		Header: []string{"Size (MB)", "Verbs-64B (req/us)", "LITE-64B (req/us)", "Verbs-1K (req/us)", "LITE-1K (req/us)"},
	}
	const threads, ops = 4, 400
	for _, mb := range []int64{1, 4, 16, 64, 256, 1024} {
		size := mb << 20
		row := []string{fmt.Sprintf("%d", mb)}
		for _, ws := range []int{64, 1024} {
			v, err := writeThroughput(false, size, ws, threads, ops)
			if err != nil {
				return nil, err
			}
			l, err := writeThroughput(true, size, ws, threads, ops)
			if err != nil {
				return nil, err
			}
			row = append(row, reqPerUs(int64(threads*ops), v), reqPerUs(int64(threads*ops), l))
		}
		t.AddRow(row...)
	}
	t.Note("paper: Verbs thrashes the NIC PTE cache above ~4MB; LITE stays flat (physical addressing)")
	return t, nil
}

func fig6() (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Write latency vs request size",
		Header: []string{"Size (B)", "Verbs (us)", "LITE KL (us)", "LITE user (us)", "TCP/IP (us)"},
	}
	sizes := []int{8, 64, 512, 4096, 32768}

	rows := make([]fig6Row, len(sizes))
	for k, s := range sizes {
		rows[k].size = s
	}
	// Verbs and LITE on one cluster.
	cls, dep, err := newLITE(2)
	if err != nil {
		return nil, err
	}
	err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
		// Native verbs target.
		local, remote := openVerbs(cls)
		rmr, _ := verbsRegion(p, remote, 64<<10)
		src, _ := verbsRegion(p, local, 64<<10)
		write := verbsWriter(local, remote)
		// LITE target.
		kc := dep.Instance(0).KernelClient()
		uc := dep.Instance(0).UserClient()
		h, _ := kc.MallocAt(p, []int{1}, 64<<10, "", lite.PermRead|lite.PermWrite)
		for k, s := range sizes {
			buf := make([]byte, s)
			r := &rows[k]
			for _, m := range []struct {
				lat *simtime.Time
				op  func(i int) error
			}{
				{&r.verbs, func(i int) error {
					return write(p, rnic.WR{WRID: uint64(s*1000 + i + 1), LocalMR: src, Len: int64(s), RemoteKey: rmr.Key()})
				}},
				{&r.kl, func(int) error { return kc.Write(p, h, 0, buf) }},
				{&r.user, func(int) error { return uc.Write(p, h, 0, buf) }},
			} {
				lat, err := meanLatency(p, 1, 60, m.op)
				if err != nil {
					return err
				}
				*m.lat = lat
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// TCP ping-pong on a fresh cluster; report one-way (RTT/2).
	tcls, err := newBare(2)
	if err != nil {
		return nil, err
	}
	l, _ := tcls.Net.Stack(1).Listen(80)
	tcls.GoOn(1, "pong", func(p *simtime.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv(p)
			if err != nil {
				return
			}
			if err := conn.Send(p, m); err != nil {
				return
			}
		}
	})
	err = runProc(tcls, 0, "ping", func(p *simtime.Proc) error {
		conn, err := tcls.Net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			return err
		}
		for k, s := range sizes {
			buf := make([]byte, s)
			rtt, err := meanLatency(p, 1, 40, func(int) error {
				if err := conn.Send(p, buf); err != nil {
					return err
				}
				_, err := conn.Recv(p)
				return err
			})
			if err != nil {
				return err
			}
			rows[k].tcp = rtt / 2
		}
		conn.Close(p.Env())
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.size), us(r.verbs), us(r.kl), us(r.user), us(r.tcp))
	}
	t.Note("paper: LITE KL ~= Verbs; LITE user slightly above (two crossings); TCP/IP an order of magnitude higher")
	return t, fig6Shape(rows)
}

func fig7() (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Write throughput vs request size (1 and 8 threads)",
		Header: []string{"Size (KB)", "Verbs-1 (GB/s)", "LITE-1 (GB/s)", "Verbs-8 (GB/s)", "LITE-8 (GB/s)", "TCP/IP (GB/s)"},
	}
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	const ops = 300
	region := int64(2 << 20) // fits every cache: best case for both stacks
	var rows []fig7Row
	for _, ws := range sizes {
		r := fig7Row{size: ws}
		cells := []string{fmt.Sprintf("%d", ws/1024)}
		for _, cfgRun := range []struct {
			lite    bool
			threads int
			rate    *float64
		}{{false, 1, &r.verbs1}, {true, 1, &r.lite1}, {false, 8, &r.verbs8}, {true, 8, &r.lite8}} {
			el, err := writeThroughput(cfgRun.lite, region, ws, cfgRun.threads, ops)
			if err != nil {
				return nil, err
			}
			*cfgRun.rate = bytesPerSec(int64(cfgRun.threads*ops*ws), el)
			cells = append(cells, gbps(int64(cfgRun.threads*ops*ws), el))
		}
		el, err := tcpStreamTime(ws, ops*2)
		if err != nil {
			return nil, err
		}
		r.tcpip = bytesPerSec(int64(2*ops*ws), el)
		cells = append(cells, gbps(int64(2*ops*ws), el))
		t.AddRow(cells...)
		rows = append(rows, r)
	}
	t.Note("paper: LITE-8 ~= Verbs-8 at the ~4GB/s link peak (RDMA-CM ~= Verbs, not modelled); TCP/IP well below")
	return t, fig7Shape(rows, params.Default().LinkBandwidth)
}

// tcpStreamTime measures a one-directional TCP stream of count
// messages of the given size and returns the elapsed time.
func tcpStreamTime(msgSize, count int) (simtime.Time, error) {
	cls, err := newBare(2)
	if err != nil {
		return 0, err
	}
	l, _ := cls.Net.Stack(1).Listen(80)
	var done simtime.Time
	cls.GoOn(1, "sink", func(p *simtime.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < count; i++ {
			if _, err := conn.Recv(p); err != nil {
				return
			}
		}
		done = p.Now()
	})
	cls.GoOn(0, "source", func(p *simtime.Proc) {
		conn, err := cls.Net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			return
		}
		buf := make([]byte, msgSize)
		for i := 0; i < count; i++ {
			if err := conn.Send(p, buf); err != nil {
				return
			}
		}
	})
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return done, nil
}

func fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "(De)registration latency vs region size",
		Header: []string{"Size (KB)", "Verbs register (us)", "Verbs deregister (us)", "LT_map (us)", "LT_unmap (us)"},
	}
	sizes := []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

	for _, size := range sizes {
		cls, dep, err := newLITE(2)
		if err != nil {
			return nil, err
		}
		var ready simtime.WaitGroup
		ready.Add(1)
		cls.GoOn(1, "owner", func(p *simtime.Proc) {
			// The LMR lives at node 0 ("a local LMR" for the mapper);
			// its master is node 1.
			c := dep.Instance(1).KernelClient()
			_, _ = c.MallocAt(p, []int{0}, size, fmt.Sprintf("reg-%d", size), lite.PermRead|lite.PermWrite)
			ready.Done(p.Env())
		})
		row := []string{fmt.Sprintf("%d", size/1024)}
		err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
			ready.Wait(p)
			ctx := verbs.Open(cls.Nodes[0].NIC, hostmem.NewAddressSpace(cls.Nodes[0].Mem))
			va, err := ctx.AddressSpace().Map(size)
			if err != nil {
				return err
			}
			c := dep.Instance(0).KernelClient()
			var mr *rnic.MR
			var h lite.LH
			lats, err := timeEach(p,
				func() (err error) { mr, err = ctx.RegisterMR(p, va, size, rnic.PermRead|rnic.PermWrite); return err },
				func() error { _ = ctx.DeregisterMR(p, mr); return nil },
				func() (err error) { h, err = c.Map(p, fmt.Sprintf("reg-%d", size)); return err },
				func() error { _ = c.Unmap(p, h); return nil })
			for _, d := range lats {
				row = append(row, us(d))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Note("paper: Verbs (de)registration grows with size (page pinning); LT_map/LT_unmap are flat metadata operations")
	return t, nil
}
