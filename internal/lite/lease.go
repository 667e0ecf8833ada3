package lite

import (
	"lite/internal/detrand"
	"lite/internal/simtime"
)

// Connection leasing (KRCORE-style): establishing an RC connection the
// cold way costs the full rdma_cm exchange plus the driver's QP state
// transitions — hundreds of microseconds per QP, paid on the critical
// path of every new client and every restarted server. A kernel-
// resident connection pool removes that: LITE pre-establishes spare
// connections per peer ahead of demand, a node needing connectivity
// leases one at Params.QPLeaseGrant (a lookup and an ownership
// handoff), and a background replenisher rebuilds the pool off the
// critical path.
//
// In the simulation the pool is modeled as per-peer spare-connection
// counts; the lease/cold distinction is purely
// which cost the verbs layer charges. The pool, like the manager's
// membership table, is modeled as surviving node restarts — it lives
// in the kernel connection service on the paper's HA pair.

// leaseState is one node's view of the connection pool.
type leaseState struct {
	// want is the configured spare-connection target per peer.
	want int
	// spares[peer] counts pre-established spare connections to peer.
	spares []int
	// replenishing marks an active background replenisher, so at most
	// one runs per node at a time.
	replenishing bool
}

func (l *leaseState) init(opts *Options, n, self int) {
	l.want = opts.QPLeasePool
	if l.want <= 0 {
		return
	}
	l.spares = make([]int, n)
	for d := range l.spares {
		if d != self {
			l.spares[d] = l.want
		}
	}
}

// revoke drops every spare connection held toward a now-dead peer and
// returns how many were revoked. A spare is half-owned by the remote
// connection service; when that node dies, its QP state dies with it,
// so the spares are unleaseable garbage — handing one out later would
// put a dead connection on a caller's critical path. The revoked slots
// are rebuilt (against the revived peer) by the replenisher.
func (l *leaseState) revoke(dst int) int {
	if l.want <= 0 || dst < 0 || dst >= len(l.spares) {
		return 0
	}
	n := l.spares[dst]
	l.spares[dst] = 0
	return n
}

// LeaseSpares reports the current spare-connection count held toward
// dst (0 when the pool is disabled). Churn harnesses poll it to time
// how long mass revocation takes to heal.
func (i *Instance) LeaseSpares(dst int) int {
	if i.lease.want <= 0 || dst < 0 || dst >= len(i.lease.spares) {
		return 0
	}
	return i.lease.spares[dst]
}

// ConnectPeer (re-)establishes this node's shared-QP connectivity to
// dst: each of the K shared QPs is either leased from the connection
// pool (Params.QPLeaseGrant each) or cold-connected through the full
// rdma_cm exchange (Params.QPConnectTime each). Returns how many were
// leased and how many went cold. A drained pool is replenished in the
// background, off this caller's critical path.
func (i *Instance) ConnectPeer(p *simtime.Proc, dst int) (leased, cold int) {
	reg := i.obsReg()
	for _, s := range i.qpSig[dst] {
		if i.lease.want > 0 && i.lease.spares[dst] > 0 {
			i.lease.spares[dst]--
			i.ctx.LeaseQP(p, s.qp)
			leased++
		} else {
			i.ctx.ConnectQP(p, s.qp, s.qp.RemoteNode(), s.qp.RemoteQPN())
			cold++
		}
	}
	reg.Add("lite.lease.leased", int64(leased))
	reg.Add("lite.lease.cold", int64(cold))
	if leased > 0 {
		i.spawnReplenisher()
	}
	return leased, cold
}

// reconnectPeers re-establishes connectivity to every peer, as a
// restarting node does before it rejoins.
// Peers this node's membership view has declared dead are skipped: a
// whole-leaf failure would otherwise make every restarting sibling
// burn a pool slot (and a lease grant) per dead neighbor, connections
// that can never complete — the leaked-slot bug the churn storm
// exposed. Connectivity toward a skipped peer is rebuilt by the
// replenisher when the membership view revives it.
func (i *Instance) reconnectPeers(p *simtime.Proc) {
	for dst := range i.qpSig {
		if dst == i.node.ID || len(i.qpSig[dst]) == 0 || i.NodeDead(dst) {
			continue
		}
		i.ConnectPeer(p, dst)
	}
}

// spawnReplenisher starts the background pool rebuilder if the pool is
// below target and no rebuilder is already running. Each rebuilt spare
// pays the full cold-connect cost — but in the background, where nobody
// waits on it.
func (i *Instance) spawnReplenisher() { i.spawnReplenisherAfter(0) }

// spawnReplenisherAfter is spawnReplenisher with an initial delay
// before the first rebuild. Mass-revival paths use it with a
// deterministic jitter so hundreds of survivors do not open their
// rdma_cm exchanges against the revived node at the same instant (the
// re-lease stampede); the zero-delay form is the ConnectPeer fast
// path, unchanged.
func (i *Instance) spawnReplenisherAfter(delay simtime.Time) {
	if i.lease.replenishing || i.lease.want <= 0 {
		return
	}
	i.lease.replenishing = true
	i.cls.GoDaemonOn(i.node.ID, "lite-lease-replenish", func(p *simtime.Proc) {
		defer func() { i.lease.replenishing = false }()
		if delay > 0 {
			p.Sleep(delay)
		}
		for {
			if i.stopped {
				return
			}
			dst := -1
			for d := range i.lease.spares {
				// Dead peers are skipped, not retried: before this check
				// the rebuilder would hot-spin cold connects against every
				// corpse in a failed leaf, starving the live destinations
				// behind them in the scan order.
				if d != i.node.ID && len(i.qpSig[d]) > 0 && !i.NodeDead(d) && i.lease.spares[d] < i.lease.want {
					dst = d
					break
				}
			}
			if dst < 0 {
				return
			}
			p.Work(simtime.Time(i.cfg.QPConnectTime))
			i.lease.spares[dst]++
			i.obsReg().Add("lite.lease.replenished", 1)
		}
	})
}

// reconcileLeases runs on every membership-view change: spares toward
// newly dead peers are revoked, and a revival re-arms the replenisher
// (with deterministic per-node jitter) to rebuild the revoked slots.
// Without the re-arm, a pool drained by revocation stayed empty until
// this node's next ConnectPeer — which then paid the cold-connect cost
// on the critical path, exactly what the pool exists to avoid.
func (i *Instance) reconcileLeases(oldDead []bool, epoch uint64) {
	if i.lease.want <= 0 {
		return
	}
	revoked := 0
	rearm := false
	for d := range i.lease.spares {
		switch {
		case i.deadView[d] && !oldDead[d]:
			// Only pairs with QPs ever lease or replenish; spares toward
			// non-mesh peers are inert, so revoking them would just
			// inflate the counter.
			if len(i.qpSig[d]) > 0 {
				revoked += i.lease.revoke(d)
			}
		case !i.deadView[d] && oldDead[d]:
			if len(i.qpSig[d]) > 0 && i.lease.spares[d] < i.lease.want {
				rearm = true
			}
		}
	}
	if revoked > 0 {
		i.obsReg().Add("lite.lease.revoked", int64(revoked))
	}
	if rearm {
		// Jitter in [0, QPConnectTime): derived from (node, epoch) so
		// the spread is deterministic per run but decorrelated across
		// the survivors that all saw the same revival broadcast.
		window := uint64(simtime.Time(i.cfg.QPConnectTime))
		var jitter simtime.Time
		if window > 0 {
			jitter = simtime.Time(detrand.Mix64(uint64(i.node.ID)<<32^epoch) % window)
		}
		i.spawnReplenisherAfter(jitter)
	}
}
