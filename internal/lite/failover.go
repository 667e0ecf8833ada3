package lite

import (
	"sort"

	"lite/internal/fifo"
	"lite/internal/simtime"
)

// Node crash/restart handling. Cluster.CrashNode cuts the node's
// fabric port (so remote QPs targeting it complete with StatusTimeout)
// and then runs the hooks registered here, which model the software
// consequences: the node's LITE daemons stop, its outstanding RPCs
// fail, and both sides of its RPC bindings are torn down. RestartNode
// reverses it: state is re-initialized, daemons respawn, and the node
// rejoins the cluster through the manager.

// attachFailover registers the LITE layer's crash/restart hooks with
// the cluster.
func (d *Deployment) attachFailover() {
	d.Cluster.OnNodeDown(func(p *simtime.Proc, node int) {
		d.Instances[node].crash(p)
	})
	d.Cluster.OnNodeUp(func(p *simtime.Proc, node int) {
		d.Instances[node].restart(p)
	})
}

// crash models the node's kernel going away: every daemon loop exits,
// every blocked caller is woken with an error, and peers' bindings to
// this node are torn down (the RC connections are broken; peers'
// in-flight requests fail by timeout or by membership notice).
func (i *Instance) crash(p *simtime.Proc) {
	if i.stopped {
		return
	}
	i.stopped = true
	env := i.cls.Env

	// Fail this node's own outstanding RPCs.
	for _, token := range i.pending.sorted() {
		pc := i.pending.get(token)
		if !pc.done {
			pc.err = ErrNodeDead
			pc.done = true
			pc.cond.Broadcast(env)
		}
	}
	i.pending = pendingTable{}
	i.scratch.quar = nil
	i.scratch.quarBytes = 0
	i.scratch.evicted = nil
	// The calls admission was accounting for die with the
	// incarnation; its state dies too, and so does the ownership view
	// (the next broadcast restores it; owner.go).
	i.adm = nil
	i.own.reset()
	i.adopted = make(map[bindKey]*adoptedWindow)

	// Stop daemons: the header-update thread exits on channel close;
	// the poller, system workers and server threads exit once woken
	// (alive), without paying a wakeup or touching the wake rule.
	// Deferred send-queue slots are returned here — nothing of the
	// dead incarnation will post again to reap their completions — and
	// every outbox is failed.
	for dst, sigs := range i.qpSig {
		for _, s := range sigs {
			s.sq.reset()
		}
		i.failOutbox(dst)
	}
	i.headUpd.Close(p)
	i.wake.crash()
	i.recvCQ.Broadcast(env)
	for _, fn := range i.sortedFuncIDs() {
		f := i.funcs[fn]
		// Queued node-local calls have waiters parked on their own
		// pendingCall; fail them before dropping the queue.
		for _, call := range f.queue.All() {
			if call.local && call.pend != nil && !call.pend.done {
				call.pend.err = ErrNodeDead
				call.pend.done = true
				call.pend.cond.Broadcast(env)
			}
		}
		f.queue = fifo.Queue[*Call]{}
		f.held = nil
		f.spin.Broadcast(env)
		f.sleep.Broadcast(env)
	}

	// Tear down this node's client bindings. Control bindings survive
	// (they are the bootstrap channel and are pointer-reset on
	// restart); everything else is renegotiated after recovery.
	for node := range i.rings {
		i.dropPeerRPC(node)
	}

	// Tear down peers' bindings toward this node symmetrically.
	for _, peer := range i.dep.Instances {
		if peer == i || peer.stopped {
			continue
		}
		peer.dropPeerRPC(i.node.ID)
	}

	// The manager's soft state dies with it (§3.3); survivors
	// reconstruct it after the restart via RecoverManagerDirectory.
	if i.node.ID == managerNode {
		i.dep.CrashManagerDirectory()
	}
}

// alive reports whether the incarnation that booted as boot still
// runs. A daemon or server thread captures i.boots when it starts and
// asks this once woken: after a same-instant restart, stopped alone
// would read false again.
func (i *Instance) alive(boot uint64) bool { return !i.stopped && i.boots == boot }

// restart re-initializes the instance after a crash and rejoins the
// cluster: control rings are pointer-reset on both sides, daemons
// respawn, and a join announcement (or, for the manager, a directory
// recovery sweep) runs on the freshly booted node.
func (i *Instance) restart(p *simtime.Proc) {
	if !i.stopped {
		return
	}
	i.stopped = false
	// A new incarnation: rings negotiated from here stamp their dedup
	// windows with the new boot count, so retries of calls first
	// posted to the previous incarnation are detectably ambiguous.
	i.boots++
	i.adm = nil
	i.pending = pendingTable{}
	i.headUpd = simtime.NewChan[headUpdate](4096)
	i.scratch.next = 0
	for _, fn := range i.sortedFuncIDs() {
		i.funcs[fn].queue = fifo.Queue[*Call]{}
	}

	// Revive the control bindings in both directions with rewound
	// rings.
	for _, row := range i.rings {
		for _, s := range row {
			if s.bind != nil {
				s.bind.dead = false
				i.rewind(s.bind)
			}
		}
	}
	for _, peer := range i.dep.Instances {
		if b := peer.bindingTo(i.node.ID, funcControl); peer != i && b != nil {
			b.dead = false
			peer.rewind(b)
		}
	}

	i.topUpRecvs(p)
	i.spawnDaemons()

	node := i.node.ID
	if node == managerNode {
		i.cls.GoOn(node, "lite-mgr-recover", func(q *simtime.Proc) {
			// Fresh epoch: survivors drop stale quarantines and relearn
			// the view (the membership table itself survives on the HA
			// pair, §3.3). Handoffs to or from this node died with it,
			// as at any node's join (copJoin).
			i.dep.memb.own.purge(node)
			i.dep.memb.epoch++
			i.broadcastMembership(q)
			_ = i.dep.RecoverManagerDirectory(q)
		})
		return
	}
	i.cls.GoOn(node, "lite-rejoin", func(q *simtime.Proc) {
		// Re-establish shared-QP connectivity (from the pool, with
		// leasing enabled) before announcing — this is the restart path
		// the lease experiment measures.
		i.reconnectPeers(q)
		// Announce to the manager with bounded retries; if the manager
		// is itself down, its own restart broadcast revives us.
		for a := 0; a < retryAttempts; a++ {
			if i.ctlJoin(q) == nil {
				return
			}
			q.Sleep(i.retryDelay(q, a))
		}
	})
}

// sortedFuncIDs returns registered RPC function ids in a stable order.
func (i *Instance) sortedFuncIDs() []int {
	ids := make([]int, 0, len(i.funcs))
	for id := range i.funcs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// resetBinding forces renegotiation of (dst, fn) on the next use. The
// control binding cannot be deleted (it is the channel renegotiation
// itself runs over), so it is pointer-reset on both sides instead.
func (i *Instance) resetBinding(dst, fn int) {
	b := i.bindingTo(dst, fn)
	if b == nil {
		return
	}
	if fn != funcControl {
		i.killBinding(dst, fn)
		return
	}
	i.rewind(b)
}

// rewind restarts both halves of b's ring credit from zero and wakes
// its parked senders. Any bytes the old epoch left in the ring are
// dead: offsets ride in the IMM, so the accounting restarts
// consistently on both sides.
func (i *Instance) rewind(b *binding) {
	b.credit.reset()
	b.space.Broadcast(i.cls.Env)
	if ring := i.dep.Instances[b.dst].ringFrom(i.node.ID, b.fn); ring != nil {
		ring.credit.reset()
	}
}

// killBinding marks the binding to (dst, fn) dead and wakes its
// ring-space waiters. A control binding survives, to be pointer-reset
// (it is the channel renegotiation itself runs over); any other is
// forgotten.
func (i *Instance) killBinding(dst, fn int) {
	s := i.rings.at(dst, fn)
	s.bind.dead = true
	s.bind.space.Broadcast(i.cls.Env)
	if fn != funcControl {
		s.bind = nil
	}
}

// dropPeerRPC tears down this node's RPC state toward node, in
// function order: every binding to it is killed (killBinding) and
// every server ring of its bindings here is forgotten. The control
// ring stays, to be pointer-reset on restart.
func (i *Instance) dropPeerRPC(node int) {
	if node >= len(i.rings) {
		return
	}
	row := i.rings[node]
	for k := range row {
		s := &row[k]
		if s.bind != nil {
			i.killBinding(node, s.fn)
		}
		if s.fn != funcControl {
			s.ring = nil
		}
	}
}
