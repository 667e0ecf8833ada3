package bench

import (
	"fmt"

	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("lease", "Connection setup: cold rdma_cm connect vs kernel QP lease pool", leaseExp)
}

// The lease experiment measures what the KRCORE-style connection pool
// buys on the reconnect critical path: a node re-establishing its
// shared-QP fan-out (what a restarted server does before rejoining,
// and what a new client pays before its first RPC) either runs the
// full rdma_cm exchange per QP or leases pre-established connections
// and lets the background replenisher rebuild the pool off-path.
const (
	leaseNodes = 5
	leaseSrc   = 1
)

// runLease measures per-peer and full-fanout reconnect latency on one
// node, cold or leased.
func runLease(pool int) (perPeer, fanout simtime.Time, leased, cold int, err error) {
	opts := lite.DefaultOptions()
	opts.QPLeasePool = pool
	cls, dep, err := newLITEOpts(leaseNodes, opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	inst := dep.Instance(leaseSrc)
	err = runProc(cls, leaseSrc, "lease-bench", func(p *simtime.Proc) error {
		t0 := p.Now()
		for dst := 0; dst < leaseNodes; dst++ {
			if dst == leaseSrc {
				continue
			}
			l, c := inst.ConnectPeer(p, dst)
			leased += l
			cold += c
			if perPeer == 0 {
				perPeer = p.Now() - t0
			}
		}
		fanout = p.Now() - t0
		return nil
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return perPeer, fanout, leased, cold, nil
}

func leaseExp() (*Table, error) {
	t := &Table{
		ID:     "lease",
		Title:  "Reconnect critical path: cold rdma_cm connect vs leased from the kernel connection pool",
		Header: []string{"Mode", "QPs leased", "QPs cold", "First peer (us)", "Full fan-out (us)"},
	}
	opts := lite.DefaultOptions()
	var coldFan, leasedFan simtime.Time
	for _, pool := range []int{0, opts.QPsPerPair} {
		perPeer, fanout, leased, cold, err := runLease(pool)
		if err != nil {
			return nil, err
		}
		mode := "cold"
		if pool > 0 {
			mode = "leased"
			leasedFan = fanout
		} else {
			coldFan = fanout
		}
		t.AddRow(mode, fmt.Sprintf("%d", leased), fmt.Sprintf("%d", cold), us(perPeer), us(fanout))
	}
	ratio := 0.0
	if leasedFan > 0 {
		ratio = float64(coldFan) / float64(leasedFan)
	}
	t.Note("leased connect is %.0fx faster than cold (%d QPs to each of %d peers; pool rebuilt by the background replenisher)",
		ratio, opts.QPsPerPair, leaseNodes-1)
	t.Note("cold pays the full rdma_cm exchange + QP state transitions per QP; a lease is a kernel pool lookup and ownership handoff")
	return t, nil
}
