package lite

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lite/internal/simtime"
)

// Live handle migration (MigrOS-style, adapted to LITE's indirection
// tier): an RPC function — and with it the application shard it serves
// — moves from one node to another while in-flight calls complete and
// without a single client call failing. The protocol:
//
//	prepare   the manager records an epoch-stamped handoff record
//	          {src, fn} -> target. The record is routing-inert; it only
//	          gates the commit, so a crash anywhere resolves to exactly
//	          one owner: whoever the manager's committed moves table
//	          names.
//	fence     new arrivals for fn at the source are held, not executed.
//	drain     the source waits until every queued and in-flight call
//	          has replied.
//	transfer  the source ships fn's serving state — per-client dedup
//	          windows with their boot-stamp lineage, plus an opaque
//	          application payload — to the target, whose registered
//	          OnAdopt hook installs the application state and stands up
//	          serving before anything routes there.
//	commit    the manager checks the handoff record, installs the move
//	          in its moves table, bumps the membership epoch, and
//	          broadcasts. This is the linearization point of ownership.
//	done      the source answers every held call with a tagRPCMoved
//	          notification carrying the new home; clients re-route and
//	          reissue without consuming a retry attempt. The source's
//	          rings stay alive so stale frames keep bouncing to the new
//	          home instead of timing out.
//
// Any failure before commit aborts: the fence lifts and held calls
// dispatch normally, as if the migration never happened. A commit
// whose reply was lost is resolved through the manager's moves table
// (idempotent re-commit, or the membership broadcast that the commit
// itself triggered).
//
// Every phase is announced on the cluster event bus, so fault plans
// can crash nodes at exact protocol instants.

// migKey identifies one move record: function fn moved away from node
// src. Keyed by (src, fn), not fn alone — function IDs are commonly
// shared by many servers (every kvstore shard server registers the
// same fn), and only the one that migrated must bounce.
type migKey struct {
	src int
	fn  int
}

// moveRec is one committed move in a membership broadcast.
type moveRec struct {
	src, fn, dst int
}

// AdoptFunc is the application hook run on a migration target while
// the source is fenced: it receives the source node and the opaque
// application payload shipped with the transfer, and must leave the
// function fully serving (registered, state installed, server threads
// up) before it returns — commit routes clients here immediately.
type AdoptFunc func(p *simtime.Proc, src int, app []byte) error

// OnAdopt registers the application adoption hook for fn on this node.
func (i *Instance) OnAdopt(fn int, h AdoptFunc) { i.onAdopt[fn] = h }

// OnAdoptFrom registers a one-shot adoption hook scoped to transfers of
// fn arriving from src specifically; it is consumed by the first
// matching adoption. Applications whose shards all share one function
// id (kvstore) need this when two sources drain onto the same target
// concurrently: with only the fn-keyed hook, the second registration
// overwrites the first and both transfers run the same shard's hook.
func (i *Instance) OnAdoptFrom(fn, src int, h AdoptFunc) {
	i.onAdoptFrom[migKey{src, fn}] = h
}

// migState tracks one in-progress outbound migration at the source.
type migState struct {
	fn     int
	target int
	fenced bool
	held   []*Call
}

// adoptedWindow is a dedup window shipped ahead of a client's binding:
// installed into the srvRing when the client binds to the target.
type adoptedWindow struct {
	boots []uint64
	dedup dedupLog
}

// drainPoll is how often the drain phase re-checks quiescence.
const drainPoll = 5 * 1000 // 5us

// commitAttempts bounds the commit retry loop. Commit must survive a
// manager crash-and-restart (the handoff and moves tables do, on the
// HA pair), so it retries harder than a regular RPC.
const commitAttempts = 8

// Drain live-migrates fn from this node to target. appState, when
// non-nil, runs after the function has quiesced and returns the opaque
// application payload handed to the target's OnAdopt hook (the
// application typically serializes its shard and hands over its LMRs
// inside this callback). On success the function's new home is target
// and this node bounces stale traffic there; on error the migration
// aborted and this node still owns fn.
func (i *Instance) Drain(p *simtime.Proc, fn, target int, appState func(q *simtime.Proc) ([]byte, error)) error {
	if i.stopped {
		return ErrNodeDead
	}
	if fn < FirstUserFunc || fn >= MaxFunc {
		return fmt.Errorf("lite: Drain: function ids must be in [%d, %d)", FirstUserFunc, MaxFunc)
	}
	f, ok := i.funcs[fn]
	if !ok {
		return ErrNoSuchRPC
	}
	if target == i.node.ID || target < 0 || target >= len(i.dep.Instances) {
		return fmt.Errorf("lite: Drain: bad target node %d", target)
	}
	if i.NodeDead(target) {
		return ErrNodeDead
	}
	if i.migrating[fn] != nil {
		return ErrMigrating
	}
	if _, gone := i.moved[migKey{i.node.ID, fn}]; gone {
		return ErrMoved
	}
	reg := i.obsReg()
	reg.Add("lite.migrate.started", 1)
	t0 := p.Now()

	i.cls.Announce(p, "lite.migrate.prepare")
	if err := i.ctlMigPrepare(p, fn, target); err != nil {
		reg.Add("lite.migrate.aborted", 1)
		return err
	}

	ms := &migState{fn: fn, target: target, fenced: true}
	i.migrating[fn] = ms
	i.cls.Announce(p, "lite.migrate.fence")

	if err := i.drainQuiesce(p, f); err != nil {
		return i.abortMigration(p, ms, err)
	}
	i.cls.Announce(p, "lite.migrate.drain")

	var app []byte
	if appState != nil {
		b, err := appState(p)
		if err != nil {
			return i.abortMigration(p, ms, err)
		}
		app = b
	}
	state := i.encodeMigState(fn, app)
	i.cls.Announce(p, "lite.migrate.transfer")
	if err := i.ctlMigState(p, target, state); err != nil {
		return i.abortMigration(p, ms, err)
	}

	i.cls.Announce(p, "lite.migrate.commit")
	if err := i.commitMigration(p, fn, target); err != nil {
		return i.abortMigration(p, ms, err)
	}

	// Committed: ownership changed at the manager. Record it locally
	// (the membership broadcast will confirm), lift the fence, and
	// bounce every held call to the new home.
	i.moved[migKey{i.node.ID, fn}] = target
	delete(i.migrating, fn)
	for _, c := range ms.held {
		i.queueNotify(p, headUpdate{tag: tagRPCMoved, client: c.Src, token: c.token, replyPA: c.replyPA, reply: wire{}.u64(uint64(target))})
	}
	reg.Add("lite.migrate.committed", 1)
	reg.Add("lite.migrate.held_bounced", int64(len(ms.held)))
	reg.Observe("lite.migrate.duration", p.Now()-t0)
	ms.held = nil
	i.cls.Announce(p, "lite.migrate.done")
	return nil
}

// drainQuiesce waits until fn has no queued and no executing calls.
// New arrivals are already fenced, so the wait is bounded by the
// longest in-flight handler; the RPC timeout bounds it defensively.
func (i *Instance) drainQuiesce(p *simtime.Proc, f *rpcFunc) error {
	var deadline simtime.Time
	if i.opts.RPCTimeout > 0 {
		deadline = p.Now() + 4*i.opts.RPCTimeout
	}
	for f.queue.len() > 0 || f.executing > 0 {
		if i.stopped {
			return ErrNodeDead
		}
		if deadline > 0 && p.Now() >= deadline {
			return ErrTimeout
		}
		p.Sleep(drainPoll)
	}
	return nil
}

// commitMigration asks the manager to commit, retrying across manager
// downtime: the handoff and moves tables survive a manager restart, so
// a lost reply is resolved by re-asking (the handler answers a
// re-commit of an already-committed move with OK) — or by the
// membership broadcast the successful commit triggered, which installs
// the move into this instance's own view.
func (i *Instance) commitMigration(p *simtime.Proc, fn, target int) error {
	var lastErr error
	for a := 0; a < commitAttempts; a++ {
		if i.stopped {
			return ErrNodeDead
		}
		if to, ok := i.moved[migKey{i.node.ID, fn}]; ok && to == target {
			// The commit landed and its broadcast beat the reply here.
			return nil
		}
		err := i.ctlMigCommit(p, fn, target)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) && !errors.Is(err, ErrNodeDead) {
			// A definitive rejection: the handoff record is gone or
			// names someone else.
			return err
		}
		p.Sleep(i.retryDelay(p, a))
	}
	if to, ok := i.moved[migKey{i.node.ID, fn}]; ok && to == target {
		return nil
	}
	return lastErr
}

// abortMigration unwinds a failed migration: the manager's handoff
// record is cleared (best effort — a stale record is routing-inert and
// is purged when either party dies or re-prepares), the fence lifts,
// and held calls dispatch as if they had just arrived. Their dedup
// entries were installed at hold time, so a retry that raced in during
// the fence redirects into them rather than executing twice.
func (i *Instance) abortMigration(p *simtime.Proc, ms *migState, cause error) error {
	i.obsReg().Add("lite.migrate.aborted", 1)
	if i.stopped {
		// Crashed mid-migration: held calls died with the incarnation;
		// their clients fail over through timeout or membership.
		return cause
	}
	delete(i.migrating, ms.fn)
	_ = i.ctlMigAbort(p, ms.fn)
	if f, ok := i.funcs[ms.fn]; ok {
		for _, c := range ms.held {
			i.dispatchCall(f, c)
		}
	}
	ms.held = nil
	i.cls.Announce(p, "lite.migrate.abort")
	return cause
}

// MovedTo reports this instance's view of where fn moved from src:
// the committed new home and true, or 0 and false if no move is
// recorded. Observability for tests and tooling; routing uses the
// retry layer's automatic redirect.
func (i *Instance) MovedTo(src, fn int) (int, bool) {
	to, ok := i.moved[migKey{src, fn}]
	return to, ok
}

// MigratingFn reports whether an outbound migration of fn is in
// progress on this node.
func (i *Instance) MigratingFn(fn int) bool { return i.migrating[fn] != nil }

// resolveMoved follows this instance's view of committed moves from
// dst, bounded against stale-view cycles.
func (i *Instance) resolveMoved(dst, fn int) int {
	for hops := 0; hops <= len(i.moved); hops++ {
		to, ok := i.moved[migKey{dst, fn}]
		if !ok {
			return dst
		}
		dst = to
	}
	return dst
}

// learnMove records a move reported by a MovedError redirect. The
// reverse edge is dropped so a later A->B->A migration chain cannot
// leave a cycle in this client's view.
func (i *Instance) learnMove(from, fn, to int) {
	i.moved[migKey{from, fn}] = to
	delete(i.moved, migKey{to, fn})
}

// encodeMigState serializes fn's transferable serving state: for every
// client ring, the boot lineage and the completed entries of the dedup
// window (sequence number plus cached reply), followed by the opaque
// application payload.
//
// Order is load-bearing: rings are walked in sorted key order and
// window entries in FIFO insertion order — never in map order, which
// would make the migrated timeline depend on Go's map randomization.
// In-flight and held entries are deliberately excluded: they have not
// executed here, so the target must run them fresh.
//
// Wire format, all little endian:
//
//	[fn 4][nrings 4] then per ring:
//	  [client 4][nboots 2][boot 8]x then [nentries 4] per entry:
//	    [seq 8][replyLen 4][reply ...]
//	then [appLen 4][app ...]
func (i *Instance) encodeMigState(fn int, app []byte) []byte {
	out := wire{}.u32(uint32(fn)).u32(0)
	nrings := 0
	for node := range i.rings {
		ring := i.ringFrom(node, fn)
		if ring == nil {
			continue
		}
		nrings++
		boots := append([]uint64{ring.boot}, ring.adoptedBoots...)
		out = out.u32(uint32(node)).u16(uint16(len(boots)))
		for _, bt := range boots {
			out = out.u64(bt)
		}
		ndOff := len(out)
		out = out.u32(0)
		n := 0
		for k := range ring.dedup.n {
			if e := ring.dedup.at(k); e.done {
				n++
				out = append(out.u64(e.seq).u32(uint32(len(e.reply))), e.reply...)
			}
		}
		binary.LittleEndian.PutUint32(out[ndOff:], uint32(n))
	}
	binary.LittleEndian.PutUint32(out[4:], uint32(nrings))
	return append(out.u32(uint32(len(app))), app...)
}

// adoptMigState installs a shipped serving state on this node (the
// migration target): per-client dedup windows merge into existing
// rings or park in the adopted set until the client binds, and the
// application payload runs through the registered OnAdopt hook, which
// must leave fn fully serving.
func (i *Instance) adoptMigState(p *simtime.Proc, src int, data []byte) error {
	if len(data) < 8 {
		return ErrRemoteFailed
	}
	fn := int(binary.LittleEndian.Uint32(data[0:]))
	nrings := int(binary.LittleEndian.Uint32(data[4:]))
	off := 8
	type adoptedRing struct {
		client  int
		w       *adoptedWindow
		entries []*dedupEntry
	}
	rings := make([]adoptedRing, 0, nrings)
	for r := 0; r < nrings; r++ {
		if len(data) < off+6 {
			return ErrRemoteFailed
		}
		client := int(binary.LittleEndian.Uint32(data[off:]))
		nboots := int(binary.LittleEndian.Uint16(data[off+4:]))
		off += 6
		w := &adoptedWindow{}
		for k := 0; k < nboots; k++ {
			if len(data) < off+8 {
				return ErrRemoteFailed
			}
			w.boots = append(w.boots, binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		if len(data) < off+4 {
			return ErrRemoteFailed
		}
		nent := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		var entries []*dedupEntry
		for k := 0; k < nent; k++ {
			if len(data) < off+12 {
				return ErrRemoteFailed
			}
			seq := binary.LittleEndian.Uint64(data[off:])
			rl := int(binary.LittleEndian.Uint32(data[off+8:]))
			off += 12
			if len(data) < off+rl {
				return ErrRemoteFailed
			}
			reply := append([]byte(nil), data[off:off+rl]...)
			off += rl
			entries = append(entries, &dedupEntry{seq: seq, done: true, reply: reply})
		}
		rings = append(rings, adoptedRing{client: client, w: w, entries: entries})
	}
	if len(data) < off+4 {
		return ErrRemoteFailed
	}
	appLen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if len(data) < off+appLen {
		return ErrRemoteFailed
	}
	app := data[off : off+appLen]

	// Installing the windows models a host-memory copy of the shipped
	// state.
	i.memcpyCost(p, int64(len(data)))
	for _, ar := range rings {
		key := bindKey{ar.client, fn}
		if ring := i.ringFrom(ar.client, fn); ring != nil {
			// The client is already bound here (this node was already
			// serving fn for other shards): merge the lineage and the
			// completed entries directly into the live window.
			ring.adoptedBoots = append(ring.adoptedBoots, ar.w.boots...)
			for _, e := range ar.entries {
				ring.dedupInsert(e)
			}
			continue
		}
		w := i.adopted[key]
		if w == nil {
			// First parked window for this (client, fn). A second
			// transfer for the same pair (concurrent drains of two
			// shards sharing fn) merges below instead of overwriting —
			// the overwrite dropped the first shard's dedup entries, so
			// an ambiguous retry against it could re-execute.
			w = ar.w
			i.adopted[key] = w
		} else {
			w.boots = append(w.boots, ar.w.boots...)
		}
		for _, e := range ar.entries {
			if w.dedup.find(e.seq) == nil {
				w.dedup.add(e)
			}
		}
	}
	// Source-scoped hooks win over the per-function hook and are
	// consumed: each concurrent drain onto this target runs exactly the
	// hook its DrainShard registered for it.
	if h, ok := i.onAdoptFrom[migKey{src, fn}]; ok {
		delete(i.onAdoptFrom, migKey{src, fn})
		if err := h(p, src, app); err != nil {
			return err
		}
	} else if h, ok := i.onAdopt[fn]; ok {
		if err := h(p, src, app); err != nil {
			return err
		}
	} else if len(app) > 0 {
		return fmt.Errorf("lite: migration of fn %d shipped application state but node %d has no OnAdopt hook", fn, i.node.ID)
	}
	i.obsReg().Add("lite.migrate.adopted", 1)
	return nil
}

// ---- control-plane wire helpers ----

func (i *Instance) ctlMigPrepare(p *simtime.Proc, fn, target int) error {
	_, err := i.ctl(p, managerNode, wire{copMigPrepare}.u32(uint32(fn)).u32(uint32(target)), 0, PriHigh)
	return err
}

func (i *Instance) ctlMigState(p *simtime.Proc, target int, state []byte) error {
	req := append([]byte{copMigState}, state...)
	_, err := i.ctl(p, target, req, 0, PriHigh)
	return err
}

func (i *Instance) ctlMigCommit(p *simtime.Proc, fn, target int) error {
	_, err := i.ctl(p, managerNode, wire{copMigCommit}.u32(uint32(fn)).u32(uint32(target)), 0, PriHigh)
	return err
}

func (i *Instance) ctlMigAbort(p *simtime.Proc, fn int) error {
	_, err := i.ctl(p, managerNode, wire{copMigAbort}.u32(uint32(fn)), 0, PriHigh)
	return err
}
