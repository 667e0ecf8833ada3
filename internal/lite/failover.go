package lite

import (
	"sort"

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
	for _, token := range i.sortedPendingTokens() {
		pc := i.pending[token]
		if !pc.done {
			pc.err = ErrNodeDead
			pc.done = true
			pc.cond.Broadcast(env)
		}
	}
	i.pending = make(map[uint32]*pendingCall)
	i.scratch.quar = nil
	i.scratch.quarBytes = 0
	i.scratch.evicted = nil
	// The calls the fair-admission policy was accounting for die with
	// the incarnation; its state dies too. Likewise migration soft
	// state: an in-flight Drain is abandoned (the manager's handoff
	// record is purged at rejoin or death), and the committed-moves
	// view is relearned from the manager's next broadcast.
	i.adm = nil
	i.migrating = make(map[int]*migState)
	i.adopted = make(map[bindKey]*adoptedWindow)
	i.moved = make(map[migKey]int)
	i.pacer = make(map[bindKey]simtime.Time)

	// Stop daemons: the header-update thread exits on channel close;
	// the poller and system workers observe stopped after a wakeup.
	// Deferred send-queue slots are returned here — nothing of the
	// dead incarnation will post again to reap their completions.
	for _, sigs := range i.qpSig {
		for _, s := range sigs {
			for _, rel := range s.pending {
				rel()
			}
			s.pending = nil
			s.count = 0
			for _, b := range s.inflight {
				for _, rel := range b.releases {
					rel()
				}
			}
			s.inflight = nil
			s.cond.Broadcast(env)
		}
	}
	i.headUpd.Close(p)
	i.recvCQ.Broadcast(env)
	i.sysQueue = nil
	i.sysCond.Broadcast(env)
	i.msgQueue = nil
	i.msgCond.Broadcast(env)
	for _, fn := range i.sortedFuncIDs() {
		f := i.funcs[fn]
		// Queued node-local calls have waiters parked on their own
		// pendingCall; fail them before dropping the queue.
		for _, call := range f.queue {
			if call.local && call.pend != nil && !call.pend.done {
				call.pend.err = ErrNodeDead
				call.pend.done = true
				call.pend.cond.Broadcast(env)
			}
		}
		f.queue = nil
		f.spin.Broadcast(env)
		f.sleep.Broadcast(env)
	}

	// Tear down this node's client bindings. Control bindings survive
	// (they are the bootstrap channel and are pointer-reset on
	// restart); everything else is renegotiated after recovery.
	for _, key := range i.sortedBindKeys() {
		b := i.bindings[key]
		b.dead = true
		b.space.Broadcast(env)
		if key.fn != funcControl {
			delete(i.bindings, key)
		}
	}
	for key := range i.srvRings {
		if key.fn != funcControl {
			delete(i.srvRings, key)
		}
	}

	// Tear down peers' bindings toward this node symmetrically.
	for _, peer := range i.dep.Instances {
		if peer == i || peer.stopped {
			continue
		}
		for _, key := range peer.sortedBindKeys() {
			if key.node != i.node.ID {
				continue
			}
			b := peer.bindings[key]
			b.dead = true
			b.space.Broadcast(env)
			if key.fn != funcControl {
				delete(peer.bindings, key)
			}
		}
		for key := range peer.srvRings {
			if key.node == i.node.ID && key.fn != funcControl {
				delete(peer.srvRings, key)
			}
		}
	}

	// The manager's soft state dies with it (§3.3); survivors
	// reconstruct it after the restart via RecoverManagerDirectory.
	if i.node.ID == i.opts.ManagerNode {
		i.dep.CrashManagerDirectory()
	}
}

// restart re-initializes the instance after a crash and rejoins the
// cluster: control rings are pointer-reset on both sides, daemons
// respawn, and a join announcement (or, for the manager, a directory
// recovery sweep) runs on the freshly booted node.
func (i *Instance) restart(p *simtime.Proc) {
	if !i.stopped {
		return
	}
	i.stopped = false
	env := i.cls.Env
	// A new incarnation: rings negotiated from here stamp their dedup
	// windows with the new boot count, so retries of calls first
	// posted to the previous incarnation are detectably ambiguous.
	i.boots++
	i.adm = nil
	i.pending = make(map[uint32]*pendingCall)
	i.headUpd = simtime.NewChan[headUpdate](4096)
	i.msgQueue = nil
	i.sysQueue = nil
	i.scratch.next = 0
	for _, fn := range i.sortedFuncIDs() {
		i.funcs[fn].queue = nil
	}

	// Revive the control bindings in both directions with reset ring
	// pointers; any bytes the old incarnation left in the rings are
	// dead (offsets ride in the IMM, so the accounting restarts
	// consistently from zero on both sides).
	for _, key := range i.sortedBindKeys() {
		b := i.bindings[key]
		b.dead = false
		b.reset()
		if ring, ok := i.dep.Instances[key.node].srvRings[bindKey{i.node.ID, key.fn}]; ok {
			ring.reset()
		}
	}
	for _, peer := range i.dep.Instances {
		if peer == i {
			continue
		}
		if b, ok := peer.bindings[bindKey{i.node.ID, funcControl}]; ok {
			b.dead = false
			b.reset()
			b.space.Broadcast(env)
		}
		if ring, ok := i.srvRings[bindKey{peer.node.ID, funcControl}]; ok {
			ring.reset()
		}
	}

	i.topUpRecvs(p)
	i.spawnDaemons()

	node := i.node.ID
	if node == i.opts.ManagerNode {
		i.cls.GoOn(node, "lite-mgr-recover", func(q *simtime.Proc) {
			// Fresh epoch: survivors drop stale quarantines and relearn
			// the view (the membership table itself survives on the HA
			// pair, §3.3).
			i.dep.memb.epoch++
			i.broadcastMembership(q)
			_ = i.dep.RecoverManagerDirectory(q)
		})
		return
	}
	i.cls.GoOn(node, "lite-rejoin", func(q *simtime.Proc) {
		// With leasing enabled, re-establish shared-QP connectivity
		// from the pool before announcing — this is the restart path
		// the lease experiment measures.
		if i.opts.ReconnectOnRestart {
			i.reconnectPeers(q)
		}
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
	key := bindKey{dst, fn}
	b, ok := i.bindings[key]
	if !ok {
		return
	}
	if fn != funcControl {
		b.dead = true
		b.space.Broadcast(i.cls.Env)
		delete(i.bindings, key)
		return
	}
	b.reset()
	b.space.Broadcast(i.cls.Env)
	if ring, ok := i.dep.Instances[dst].srvRings[bindKey{i.node.ID, fn}]; ok {
		ring.reset()
	}
}
