package lite

import (
	"encoding/binary"
	"sort"

	"lite/internal/detrand"
	"lite/internal/simtime"
)

// Failure detection (§3.3 extended): the cluster manager probes every
// node with periodic keepalive RPCs. After heartbeatMiss consecutive
// missed beats it declares the node dead, bumps a monotonically
// increasing membership epoch, and broadcasts the new view to every
// live instance. Instances use the view to fail outstanding RPCs to
// dead nodes immediately (instead of waiting out the transport
// timeout), to refuse new sends toward them, and to release
// quarantined reply buffers from before the epoch advance.
//
// The detector is conservative in both directions: a node that answers
// a later probe (a false suspicion during a link flap, or a silent
// restart) is revived with another epoch bump, and a probe reply
// carrying a stale epoch triggers an anti-entropy re-broadcast so a
// node that missed a membership message converges on the next beat.

// heartbeatMiss is K, the consecutive missed beats after which the
// manager declares a node dead.
const heartbeatMiss = 3

// membState is the manager's authoritative membership bookkeeping,
// with the function-ownership table (owner.go).
type membState struct {
	epoch uint64
	dead  map[int]bool
	miss  map[int]int
	own   ownerTable
	// broadcasting/dirty coalesce concurrent view changes into one
	// broadcast stream: while a broadcast is in flight, further epoch
	// bumps mark the view dirty instead of starting their own
	// 475-message fan-out, and the in-flight broadcaster re-ships the
	// final view once. Without this a leaf failure (25 near-simultaneous
	// declarations) cost O(deaths x nodes) correlated control messages —
	// and the overlapping fan-outs could pair a freshly bumped epoch
	// with a stale dead list, which receivers then pinned as current.
	broadcasting bool
	dirty        bool
}

// deadList returns the dead set as a sorted slice (broadcast payloads
// and map iterations must be deterministic).
func (m *membState) deadList() []int {
	var out []int
	for n := range m.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// NodeDead reports whether this instance's membership view has
// declared the node dead.
func (i *Instance) NodeDead(node int) bool {
	return node >= 0 && node < len(i.deadView) && i.deadView[node]
}

// MembershipEpoch returns the membership epoch this instance has seen.
func (i *Instance) MembershipEpoch() uint64 { return i.epoch }

// proberLoop runs on the manager node, one daemon per probed peer.
//
// With ProbeStagger set, each prober's phase is offset by a
// deterministic hash of its target before the first beat. All probers
// otherwise share the boot instant as their phase, so every beat is a
// synchronized n-1 probe burst and a leaf failure makes all of the
// leaf's probers time out, declare, and broadcast in the same instant —
// the correlated O(n^2) storm the churn experiment measures. The offset
// is a pure function of the target id, so the spread replays bit for
// bit.
func (i *Instance) proberLoop(p *simtime.Proc, target int) {
	if i.opts.ProbeStagger && i.opts.HeartbeatInterval > 0 {
		p.Sleep(simtime.Time(detrand.Mix64(uint64(target)) % uint64(i.opts.HeartbeatInterval)))
	}
	for {
		p.Sleep(i.opts.HeartbeatInterval)
		if i.stopped {
			continue // manager down: detector paused until restart
		}
		m := &i.dep.memb
		peerEpoch, err := i.ctlPing(p, target)
		if err != nil {
			if m.dead[target] {
				continue
			}
			m.miss[target]++
			i.obsReg().Add("lite.heartbeat.misses", 1)
			if m.miss[target] >= heartbeatMiss {
				i.declareDead(p, target)
			}
			continue
		}
		m.miss[target] = 0
		if m.dead[target] {
			// False suspicion (or a restart whose join we missed):
			// bring the node back with a fresh epoch.
			i.obsReg().Add("lite.membership.revivals", 1)
			i.reviveNode(p, target)
			continue
		}
		if peerEpoch < m.epoch {
			// Anti-entropy: the peer missed a membership broadcast.
			_ = i.ctlMembership(p, target, m.epoch, m.deadList(), m.own.list())
		}
	}
}

// declareDead marks the target dead, bumps the epoch, and broadcasts.
// Declaring an already-dead node is a no-op: concurrent declarations of
// the same node must collapse to one epoch bump and one broadcast, not
// one per declarer.
func (i *Instance) declareDead(p *simtime.Proc, target int) {
	m := &i.dep.memb
	if m.dead[target] {
		return
	}
	m.dead[target] = true
	m.own.purge(target)
	m.epoch++
	i.obsReg().Add("lite.membership.epochs", 1)
	i.obsReg().Add("lite.membership.deaths", 1)
	i.broadcastMembership(p)
}

// reviveNode clears node's dead mark under a fresh epoch, so every
// instance drops it and releases pre-restart quarantines: when a
// restarted node joins, or a node declared dead answers a probe.
func (i *Instance) reviveNode(p *simtime.Proc, node int) {
	m := &i.dep.memb
	delete(m.dead, node)
	m.miss[node] = 0
	m.epoch++
	i.obsReg().Add("lite.membership.epochs", 1)
	i.broadcastMembership(p)
}

// broadcastMembership ships the manager's current view to every live
// instance (applied locally for the manager itself). Sends are bounded
// by the heartbeat timeout; a node that misses the message converges
// through anti-entropy on the next probe.
//
// Overlapping broadcasts coalesce: if one fan-out is already in
// flight, the caller marks the view dirty and returns; the in-flight
// broadcaster re-ships the final view once before it finishes. Each
// lap snapshots (epoch, dead, moves) together, so a peer never
// receives a fresh epoch paired with a stale view — the interleaving
// that previously made receivers pin an outdated dead list as current
// and drop the corrected broadcast as a replay.
func (i *Instance) broadcastMembership(p *simtime.Proc) {
	m := &i.dep.memb
	if m.broadcasting {
		// Apply locally right away (the manager's own view must fail
		// pending RPCs to the newly dead promptly); only the remote
		// fan-out is deferred to the in-flight broadcaster.
		i.applyMembership(m.epoch, m.deadList(), m.own.list())
		m.dirty = true
		return
	}
	m.broadcasting = true
	defer func() { m.broadcasting = false }()
	for {
		m.dirty = false
		epoch := m.epoch
		dead := m.deadList()
		moves := m.own.list()
		i.applyMembership(epoch, dead, moves)
		for _, peer := range i.dep.Instances {
			pid := peer.node.ID
			if pid == i.node.ID || m.dead[pid] {
				continue
			}
			_ = i.ctlMembership(p, pid, epoch, dead, moves)
		}
		i.obsReg().Add("lite.membership.broadcasts", 1)
		if !m.dirty {
			return
		}
	}
}

// applyMembership installs a membership view on this instance. Stale
// epochs are ignored. Chains queued in the send-queue outboxes toward
// dead nodes fail at once, outstanding RPCs to them fail with
// ErrNodeDead, ring-space waiters toward them are woken so they can
// abort, and quarantined reply buffers from before the new epoch are
// released (any straggler reply from that era was sent by a peer now
// declared dead or restarted, so it can no longer arrive).
func (i *Instance) applyMembership(epoch uint64, dead []int, moves []moveRec) {
	if epoch <= i.epoch || i.stopped {
		return
	}
	i.epoch = epoch
	oldDead := i.deadView
	i.deadView = make([]bool, len(oldDead))
	for _, n := range dead {
		if n >= 0 && n < len(i.deadView) {
			i.deadView[n] = true
		}
		i.failOutbox(n)
	}
	// Connection-pool reconciliation: revoke spares toward the newly
	// dead, re-arm the replenisher (jittered) for the newly revived.
	i.reconcileLeases(oldDead, epoch)
	i.own.install(moves)
	env := i.cls.Env
	for _, token := range i.pending.sorted() {
		pc := i.pending.get(token)
		if pc.done || pc.abandoned || pc.probe || !i.NodeDead(pc.dst) {
			continue
		}
		pc.err = ErrNodeDead
		pc.done = true
		pc.cond.Broadcast(env)
	}
	for _, token := range i.scratch.releaseBefore(epoch) {
		i.pending.del(token)
	}
	for node, row := range i.rings {
		if !i.NodeDead(node) {
			continue
		}
		for _, s := range row {
			if s.bind != nil {
				s.bind.space.Broadcast(env)
			}
		}
	}
}

// ---- control-plane wire helpers ----

// ctlPing sends one keepalive and returns the peer's membership epoch.
func (i *Instance) ctlPing(p *simtime.Proc, dst int) (uint64, error) {
	out, err := i.rpc(p, &rpcCall{dst: dst, fn: funcControl, input: []byte{copPing}, maxReply: 9, pri: PriHigh, timeout: i.opts.HeartbeatTimeout, probe: true})
	if err != nil {
		return 0, err
	}
	if len(out) < 9 || out[0] != cstOK {
		return 0, ErrRemoteFailed
	}
	return binary.LittleEndian.Uint64(out[1:]), nil
}

// ctlMembership pushes an (epoch, dead set, committed moves) view to
// dst.
func (i *Instance) ctlMembership(p *simtime.Proc, dst int, epoch uint64, dead []int, moves []moveRec) error {
	req := wire{copMembership}.u64(epoch).u16(uint16(len(dead)))
	for _, n := range dead {
		req = req.u32(uint32(n))
	}
	req = req.u16(uint16(len(moves)))
	for _, mv := range moves {
		req = req.u32(uint32(mv.src)).u32(uint32(mv.fn)).u32(uint32(mv.dst))
	}
	_, err := i.rpc(p, &rpcCall{dst: dst, fn: funcControl, input: req, maxReply: 1, pri: PriHigh, timeout: i.opts.HeartbeatTimeout})
	return err
}

// ctlJoin announces this node to the manager after a restart.
func (i *Instance) ctlJoin(p *simtime.Proc) error {
	_, err := i.rpc(p, &rpcCall{dst: managerNode, fn: funcControl, input: []byte{copJoin}, maxReply: 1, pri: PriHigh, timeout: i.opts.RPCTimeout})
	return err
}
