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
//	prepare   the manager records the handoff {src, fn} -> target.
//	fence     new arrivals for fn at the source are held, not executed.
//	drain     the source waits until every queued and in-flight call
//	          has replied.
//	transfer  the source ships fn's serving state — per-client dedup
//	          windows with their boot-stamp lineage, plus an opaque
//	          application payload — to the target, whose OnAdoptFrom
//	          hook installs the application state and stands up
//	          serving before anything routes there.
//	commit    the manager checks the handoff record, installs the move
//	          in its moves table, bumps the membership epoch, and
//	          broadcasts. This is the linearization point of ownership.
//	done      the source answers every held call, and every later one,
//	          with a tagRPCMoved notice naming the new home; clients
//	          re-route without spending a retry attempt.
//
// Any failure before commit aborts: the fence lifts and held calls
// dispatch normally, as if the migration never happened. Who owns what
// is ownerTable's and ownerView's state (owner.go); this file runs the
// phases.
//
// Every phase is announced on the cluster event bus, so fault plans
// can crash nodes at exact protocol instants.

// AdoptFunc is the application hook run on a migration target while
// the source is fenced: it receives the source node and the opaque
// application payload shipped with the transfer, and must leave the
// function fully serving (registered, state installed, server threads
// up) before it returns — commit routes clients here immediately.
type AdoptFunc func(p *simtime.Proc, src int, app []byte) error

// OnAdoptFrom registers the adoption hook for a transfer of fn arriving
// from src; the first matching adoption consumes it. It is keyed by
// source because applications whose shards all share one function id
// (kvstore) may drain two shards onto one target in turn, and each
// transfer must run the hook its own drain registered.
func (i *Instance) OnAdoptFrom(fn, src int, h AdoptFunc) {
	i.onAdoptFrom[migKey{src, fn}] = h
}

// adoptedWindow is a dedup window shipped ahead of a client's binding:
// installed into the srvRing when the client binds to the target.
type adoptedWindow struct {
	boots []uint64
	dedup dedupLog
}

// drainPoll is how often the drain phase re-checks quiescence.
const drainPoll = 5 * 1000 // 5us

// commitBackoffSteps caps the doublings of the commit retry backoff.
const commitBackoffSteps = 8

// Drain live-migrates fn from this node to target. appState, when
// non-nil, runs after the function has quiesced and returns the opaque
// application payload handed to the target's OnAdoptFrom hook (the
// application typically serializes its shard and hands over its LMRs
// inside this callback). On success the function's new home is target
// and this node bounces stale traffic there; on error the migration
// aborted and this node still owns fn (ErrMoved: fn moved away from
// here, or once left target for another node). Once fn is handed over,
// Drain waits for the manager to answer the commit, holding fn's calls
// meanwhile, and for ever if the manager never comes back.
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
	if err := i.own.drainable(fn); err != nil {
		return err
	}
	reg := i.obsReg()
	reg.Add("lite.migrate.started", 1)
	t0 := p.Now()

	i.cls.Announce(p, "lite.migrate.prepare")
	if err := i.ctlMig(p, copMigPrepare, fn, target); err != nil {
		reg.Add("lite.migrate.aborted", 1)
		return err
	}

	i.own.fence(fn)
	i.cls.Announce(p, "lite.migrate.fence")

	if err := i.drainQuiesce(p, f); err != nil {
		return i.abortMigration(p, fn, err)
	}
	i.cls.Announce(p, "lite.migrate.drain")

	var app []byte
	if appState != nil {
		b, err := appState(p)
		if err != nil {
			return i.abortMigration(p, fn, err)
		}
		app = b
	}
	state := append([]byte{copMigState}, i.encodeMigState(fn, app)...)
	i.cls.Announce(p, "lite.migrate.transfer")
	if _, err := i.ctl(p, target, state, 0, PriHigh); err != nil {
		return i.abortMigration(p, fn, err)
	}

	i.cls.Announce(p, "lite.migrate.commit")
	if err := i.commitMigration(p, fn, target); err != nil {
		return i.abortMigration(p, fn, err)
	}

	// Committed: record it, lift the fence, bounce the held calls.
	i.own.commit(fn, target)
	for _, c := range f.held {
		i.queueNotify(p, headUpdate{tag: tagRPCMoved, client: c.Src, token: c.token, replyPA: c.replyPA, reply: wire{}.u64(uint64(target))})
	}
	reg.Add("lite.migrate.committed", 1)
	reg.Add("lite.migrate.held_bounced", int64(len(f.held)))
	reg.Observe("lite.migrate.duration", p.Now()-t0)
	f.held = nil
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
	for f.queue.Len() > 0 || f.executing > 0 {
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

// commitMigration asks the manager to commit until it answers. The
// handoff and moves tables survive a manager restart, so a lost reply
// is resolved by asking again (a re-commit of a committed move is
// answered OK) or by the broadcast the commit triggered. It never gives
// up while the commit may have landed: this node would then serve fn
// next to the target (TestOwnershipModel).
func (i *Instance) commitMigration(p *simtime.Proc, fn, target int) error {
	for a := 0; ; a++ {
		if i.stopped {
			return ErrNodeDead
		}
		if i.own.committed(fn, target) {
			return nil // the commit's broadcast beat its reply here
		}
		err := i.ctlMig(p, copMigCommit, fn, target)
		if err == nil || !retryable(err) && !errors.Is(err, ErrNodeDead) {
			return err // committed, or refused for good (ownerTable.commit)
		}
		p.Sleep(i.retryDelay(p, min(a, commitBackoffSteps)))
	}
}

// abortMigration unwinds a failed migration: the manager's handoff
// record is cleared (best effort: a stale one is routing-inert), the
// fence lifts, and held calls dispatch as if they had just arrived.
func (i *Instance) abortMigration(p *simtime.Proc, fn int, cause error) error {
	i.obsReg().Add("lite.migrate.aborted", 1)
	if i.stopped {
		// Crashed mid-migration: held calls died with the incarnation;
		// their clients fail over through timeout or membership.
		return cause
	}
	i.own.abort(fn)
	_, _ = i.ctl(p, managerNode, wire{copMigAbort}.u32(uint32(fn)), 0, PriHigh)
	f := i.funcs[fn]
	for _, c := range f.held {
		i.dispatchCall(f, c)
	}
	f.held = nil
	i.cls.Announce(p, "lite.migrate.abort")
	return cause
}

// MovedTo reports where this instance's view says fn moved from src,
// if anywhere. Routing does not need it: the retry layer redirects.
func (i *Instance) MovedTo(src, fn int) (int, bool) {
	to, ok := i.own.moved[migKey{src, fn}]
	return to, ok
}

// MigratingFn reports whether fn is migrating away from this node.
func (i *Instance) MigratingFn(fn int) bool { return i.own.holds(fn) }

// encodeMigState serializes fn's transferable serving state: for every
// client ring, the boot lineage and the completed entries of the dedup
// window (sequence number plus cached reply), followed by the opaque
// application payload.
//
// Rings go in sorted key order and window entries in FIFO order, never
// in map order, so the timeline replays. In-flight and held entries
// stay out: they have not executed here, so the target runs them.
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
// application payload runs through the OnAdoptFrom hook registered for
// src, which must leave fn fully serving.
func (i *Instance) adoptMigState(p *simtime.Proc, src int, data []byte) error {
	r := wireReader{b: data}
	fn, nrings := r.u32(), r.u32()
	type adoptedRing struct {
		client  int
		w       *adoptedWindow
		entries []*dedupEntry
	}
	var rings []adoptedRing
	for ; nrings > 0 && !r.short; nrings-- {
		ar := adoptedRing{client: r.u32(), w: &adoptedWindow{}}
		for k := r.u16(); k > 0 && !r.short; k-- {
			ar.w.boots = append(ar.w.boots, r.u64())
		}
		for k := r.u32(); k > 0 && !r.short; k-- {
			seq := r.u64()
			ar.entries = append(ar.entries, &dedupEntry{seq: seq, done: true, reply: append([]byte(nil), r.next(r.u32())...)})
		}
		rings = append(rings, ar)
	}
	app := r.next(r.u32())
	if r.short {
		return ErrRemoteFailed
	}
	if !i.own.adopt(fn) {
		return ErrMigrating
	}

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
			// First parked window for this (client, fn); a second
			// transfer for the pair (two shards sharing fn) merges below,
			// or an ambiguous retry against the first could re-execute.
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
	if h, ok := i.onAdoptFrom[migKey{src, fn}]; ok {
		delete(i.onAdoptFrom, migKey{src, fn})
		if err := h(p, src, app); err != nil {
			return err
		}
	} else if len(app) > 0 {
		return fmt.Errorf("lite: migration of fn %d from node %d shipped application state but node %d has no OnAdoptFrom hook", fn, src, i.node.ID)
	}
	i.obsReg().Add("lite.migrate.adopted", 1)
	return nil
}

// ctlMig asks the manager to prepare or commit (op) the move of this
// node's fn to target.
func (i *Instance) ctlMig(p *simtime.Proc, op byte, fn, target int) error {
	_, err := i.ctl(p, managerNode, wire{op}.u32(uint32(fn)).u32(uint32(target)), 0, PriHigh)
	return err
}
