package lite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"lite/internal/fifo"
	"lite/internal/hostmem"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// Reserved RPC function IDs. User functions must use FirstUserFunc and
// above.
const (
	funcControl = 0 // binding setup, naming, memory ops
	funcMsg     = 1 // LT_send messaging
	funcLock    = 2 // distributed lock protocol
	funcBarrier = 3 // distributed barrier

	// FirstUserFunc is the lowest RPC function ID available to
	// applications.
	FirstUserFunc = 16
)

// IMM value encoding: [4b tag][5b func][23b offset-or-delta/8].
// Function IDs are limited to 32 and ring offsets to 64 MB with 8-byte
// slot alignment (the fine alignment is what makes LITE's rings
// space-efficient in Figure 12).
const (
	tagRPCReq   = 1
	tagRPCRep   = 2
	tagHeadUpd  = 3
	tagRPCShed  = 4 // admission control: call shed, token in the low 28 bits
	tagRPCMaybe = 5 // dedup ambiguity: retry crossed a server restart
	tagRPCMoved = 6 // migration fence: function moved, new home in the reply buffer
	// tagCreditReq is the ring-credit pull: a sender about to block on a
	// full ring asks the server to ship whatever credit it is holding
	// back (see queueHeadUpdate). Zero-length; the fn bits name the ring
	// and the value bits carry the sender's tail in pullUnit granules.
	tagCreditReq = 7

	// MaxFunc is the exclusive upper bound on RPC function IDs.
	MaxFunc = 32

	ringAlign = 8
)

// MaxRingBytes is the largest RPC ring the IMM encoding can address:
// 23 bits of 8-byte units. A ring of exactly this size is fine (its
// largest frame offset is MaxRingBytes-8); anything bigger would wrap
// offsets silently and corrupt the ring.
const MaxRingBytes = int64(0x7fffff+1) * ringAlign // 64 MB

// validateRingBytes rejects ring sizes the IMM offset encoding cannot
// represent. Checked at deployment boot, at boot-time binding setup,
// and on the serving side of ring negotiation, so a corrupting
// configuration can never produce a live ring.
func validateRingBytes(n int64) error {
	if n <= 0 || n%ringAlign != 0 || n > MaxRingBytes {
		return ErrBadRingBytes
	}
	return nil
}

func encodeImm(tag, fn int, v int64) uint32 {
	return uint32(tag)<<28 | uint32(fn&0x1f)<<23 | uint32((v/ringAlign)&0x7fffff)
}

func decodeImm(imm uint32) (tag, fn int, v int64) {
	return int(imm >> 28), int(imm >> 23 & 0x1f), int64(imm&0x7fffff) * ringAlign
}

// tokenMask selects the call token of an answer IMM: [4b tag][28b token].
// Every answer to a call attempt — reply, shed, maybe-executed, moved —
// is encoded this way; only the tag differs.
const tokenMask = 0x0fffffff

func encodeAnswerImm(tag int, token uint32) uint32 { return uint32(tag)<<28 | token&tokenMask }

// Ring message header layout (all little endian):
//
//	[0:4]   wrap padding the sender skipped before this frame
//	[4:8]   reply token
//	[8:16]  reply physical address on the caller's node
//	[16:20] input length
//	[20:28] client sequence number (0 = unsequenced, no dedup)
//	[28:36] server boot count the logical call was first posted to
//	[36:38] prior ambiguous (timed-out) attempts of this logical call
//	[38:40] caller's tenant (0 = kernel/untenanted)
//	[40:..] input bytes
//
// The sequence number identifies a logical call across retry attempts:
// a timed-out RPC may have executed server-side with only the reply
// lost, so the server keeps a small per-(client, function) window of
// recently seen sequence numbers and answers duplicates from it
// instead of running the handler twice.
//
// The padding travels with the frame because frames of one binding do
// not arrive in ring order (see ringServer.arrive).
//
// The boot stamp closes that window's restart gap: the window dies
// with the server's rings on a crash, so a retry that crosses a server
// restart would otherwise re-execute silently. A retry (attempt > 0)
// carrying a boot stamp older than the serving ring's is answered with
// tagRPCMaybe — the typed "may have executed" — instead of being run.
const ringHdr = 40

// bindKey identifies an RPC binding: a (peer node, function) pair.
type bindKey struct {
	node int
	fn   int
}

// fnState is one (peer node, function) pair's RPC state on this node:
// the client side of this node's binding to the peer's function fn,
// its negotiation while in flight, and the server side of the peer's
// binding to this node's fn.
type fnState struct {
	fn    int
	bind  *binding
	setup *bindSetup
	ring  *srvRing
}

// fnTable holds the fnStates of this node's peers: row node lists the
// functions in use with that peer, in id order, so walking the table
// visits the (node, fn) pairs in key order. A row holds a handful of
// functions (the control binding, the applications it serves or
// calls) and is scanned; one indexed by function id would spend ~700
// bytes on each kvstore peer to reach its id.
type fnTable [][]fnState

// at returns the state of (node, fn), or nil if it has never been set.
// The pointer is good until the row next grows.
func (t fnTable) at(node, fn int) *fnState {
	if node < 0 || node >= len(t) {
		return nil
	}
	row := t[node]
	for k := range row {
		if row[k].fn == fn {
			return &row[k]
		}
	}
	return nil
}

// slot returns the state of (node, fn) for writing, adding it if it is
// new. The pointer is good until the row next grows.
func (t *fnTable) slot(node, fn int) *fnState {
	if s := t.at(node, fn); s != nil {
		return s
	}
	for len(*t) <= node {
		*t = append(*t, nil)
	}
	row := (*t)[node]
	k := 0
	for k < len(row) && row[k].fn < fn {
		k++
	}
	row = slices.Insert(row, k, fnState{fn: fn})
	(*t)[node] = row
	return &row[k]
}

// bindingTo returns this node's binding to dst's fn, or nil.
func (i *Instance) bindingTo(dst, fn int) *binding {
	if s := i.rings.at(dst, fn); s != nil {
		return s.bind
	}
	return nil
}

// ringFrom returns the server ring of client's binding to fn, or nil.
func (i *Instance) ringFrom(client, fn int) *srvRing {
	if s := i.rings.at(client, fn); s != nil {
		return s.ring
	}
	return nil
}

// binding is the client-side state of an RPC binding: a ring buffer
// LMR at the server written with write-imm. The client manages the
// tail; the server sends back head updates from a background thread
// (§5.1).
type binding struct {
	dst    int
	fn     int
	ringPA hostmem.PAddr
	credit ringClient
	space  simtime.Cond // parked senders wait here for credit
	// srvBoot is the server incarnation that negotiated this ring
	// (returned by copBind; zero for boot-time bindings). First
	// attempts of retried calls are stamped with it so the server can
	// detect a retry that crossed its own restart.
	srvBoot uint64
	// dead marks a binding severed by a node crash; waiters abort.
	dead bool
}

// srvRing is the server-side state of a binding.
type srvRing struct {
	client int
	fn     int
	pa     hostmem.PAddr
	size   int64
	credit ringServer
	// boot is the serving instance's incarnation when the ring (and
	// with it the dedup window below) was created — the window's
	// epoch stamp. Non-control rings never survive a restart, so a
	// frame stamped with an older boot is a retry whose history this
	// window cannot hold.
	boot uint64

	// dedup is the duplicate-suppression window for retried calls: the
	// last dedupWindow sequence numbers seen from this (client, fn),
	// with the cached reply once one completes. Duplicates of a
	// completed call replay the cached reply; duplicates of an
	// in-flight call redirect its eventual reply to the newest
	// attempt's token and buffer. The window dies with the ring on
	// crash teardown.
	dedup dedupLog

	// adoptedBoots lists earlier incarnations whose dedup history this
	// ring inherited through a live migration: the boot stamps of the
	// source rings whose windows were transferred in (chains of
	// migrations accumulate lineage). A retry stamped with any of these
	// boots is covered by this window, so the restart-ambiguity check
	// must not fire for it.
	adoptedBoots []uint64
}

// retryStamp identifies one logical retried call across its attempts:
// the client sequence number for the server's dedup window (0 =
// unsequenced, no dedup), the count of prior attempts that ended
// ambiguously (timed out — an overload shed is a definitive "did not
// execute" and does not count), and the server incarnation the call was
// first posted to. The boot stamp is (re)captured on every attempt
// until one turns ambiguous, then frozen: from that point a differing
// server incarnation means the window that could have remembered the
// call is gone. It travels in the ring header (see ringHdr).
type retryStamp struct {
	seq     uint64
	attempt uint16
	boot    uint64
}

// rpcCall describes one LT_RPC to the call path: every entry point —
// Client.RPC and RPCT, the retry layer, multicast, and LITE's own
// control, lock, barrier and keepalive calls — fills one in and passes
// it by pointer down to the ring post. The zero caller is LITE's own
// kernel threads.
type rpcCall struct {
	dst, fn  int
	input    []byte
	maxReply int64
	pri      Priority
	// timeout bounds the wait for the reply; zero waits forever (locks
	// and barriers, whose replies are withheld until the event occurs).
	timeout simtime.Time
	// probe marks a keepalive: it may target a declared-dead node, since
	// a successful probe is exactly what revives one.
	probe bool
	caller
	// retryStamp is set by the retry layer for remote user functions and
	// mutated across its attempts.
	retryStamp
}

// rpcFunc is a registered RPC function: the queue its server threads
// take calls from, in LT_recvRPC for an application function. The
// system workers (systemWorkerLoop) serve one shared by funcControl,
// funcLock and funcBarrier.
type rpcFunc struct {
	queue fifo.Queue[*Call]
	// spin parks the server threads inside their busy window, sleep
	// those past it; the pool decides whom a call wakes (wake.go).
	spin, sleep simtime.Cond
	*workerPool
	// executing counts remote calls dequeued by a server thread whose
	// reply has not yet posted. Drain's quiescence condition is
	// queue.Len() == 0 && executing == 0.
	executing int
	// held are the calls a migration fence holds (handleRPCReq), to be
	// bounced on commit or dispatched on abort.
	held []*Call
}

// Call is a received RPC call. The server thread must reply exactly
// once with ReplyRPC (possibly later, from another thread).
type Call struct {
	Func int
	Src  int
	// Tenant is the caller's tenant ID as carried in the ring header
	// (0 = kernel/untenanted). Handlers may use it to act on the
	// caller's behalf inside that tenant's namespace.
	Tenant  uint16
	Input   []byte
	token   uint32
	replyPA hostmem.PAddr

	// headDelta is the ring credit returned to the client when the
	// call is consumed.
	headDelta int64

	// ded points at this call's dedup-window entry (sequenced calls
	// only); the reply is cached there for duplicate replay.
	ded *dedupEntry

	// admCost is the cost admission charged this call's bank, released
	// when the reply posts; recvAt stamps when a server thread dequeued
	// it, so the reply can feed the observed service time back into the
	// admission cost EWMA.
	admCost int64
	recvAt  simtime.Time

	// exec points at the function whose executing count this call holds
	// (set when a server thread dequeues a remote call, cleared when
	// the reply posts); Drain uses the count to wait out in-flight work.
	exec *rpcFunc

	// Node-local fast path.
	local      bool
	pend       *pendingCall
	localReply []byte
}

// pendingCall tracks an outstanding LT_RPC at the client.
type pendingCall struct {
	cond    simtime.Cond
	done    bool
	respPA  hostmem.PAddr
	respLen int64
	dst     int
	// err, when set by a membership change or local crash, is returned
	// to the waiter instead of a reply.
	err error
	// abandoned marks a call whose waiter timed out; the entry stays
	// pending (and its reply buffer quarantined) until the late reply
	// lands or the membership epoch advances.
	abandoned bool
	// probe marks a keepalive: it may target a declared-dead node (that
	// is the point — a successful probe revives it), so membership
	// changes must not fail it preemptively.
	probe bool
}

// pendingTable holds the outstanding calls by token: a power-of-two
// array of slots indexed by token & (len-1). Tokens count up, so the
// live ones mostly sit in consecutive slots; token() passes over a
// token whose slot an older call still holds (a call abandoned to its
// timeout stays until its answer or the next membership epoch), and
// the table doubles whenever half of it is live.
type pendingTable struct {
	slots []pendingSlot
	live  int
}

type pendingSlot struct {
	token uint32
	pc    *pendingCall
}

// pendingMinSlots is a fresh table's size.
const pendingMinSlots = 64

// slot returns the slot token maps to.
func (t *pendingTable) slot(token uint32) *pendingSlot {
	return &t.slots[token&uint32(len(t.slots)-1)]
}

// get returns the call pending under token, or nil.
func (t *pendingTable) get(token uint32) *pendingCall {
	if len(t.slots) == 0 {
		return nil
	}
	if s := t.slot(token); s.pc != nil && s.token == token {
		return s.pc
	}
	return nil
}

// reserve makes room for one more call: the table doubles once half
// of it is live, so a free slot is never far.
func (t *pendingTable) reserve() {
	if 2*t.live < len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]pendingSlot, max(pendingMinSlots, 2*len(old)))
	for _, s := range old {
		if s.pc != nil {
			*t.slot(s.token) = s
		}
	}
}

// put files pc under token, whose slot must be free.
func (t *pendingTable) put(token uint32, pc *pendingCall) {
	*t.slot(token) = pendingSlot{token, pc}
	t.live++
}

// del drops the call pending under token, if any.
func (t *pendingTable) del(token uint32) {
	if t.get(token) != nil {
		*t.slot(token) = pendingSlot{}
		t.live--
	}
}

// sorted returns the pending tokens in ascending order: failing calls
// in slot order would make the timeline depend on the table's size.
func (t *pendingTable) sorted() []uint32 {
	toks := make([]uint32, 0, t.live)
	for _, s := range t.slots {
		if s.pc != nil {
			toks = append(toks, s.token)
		}
	}
	slices.Sort(toks)
	return toks
}

// headUpdate is one notification queued to the background
// header-update thread: a ring credit (tag tagHeadUpd) or an answer to
// a call attempt that no handler thread posts — a shed, a
// maybe-executed or moved notice, a replayed cached reply, a keepalive
// reply. All are small write-imms to the client, so they share the
// thread's per-client doorbell batching and its ordering guarantee.
type headUpdate struct {
	tag    int
	client int
	fn     int
	delta  int64 // credit: bytes consumed

	// An answer's coordinates (the attempt's token and reply buffer) and
	// the payload that lands in that buffer ahead of the IMM: a cached
	// reply, a shed's Retry-After hint, a moved notice's new home.
	token   uint32
	replyPA hostmem.PAddr
	reply   []byte
}

// Message is a unidirectional LT_send message.
type Message struct {
	Src  int
	Data []byte
}

// RegisterRPC registers an application RPC function ID on this node so
// clients can bind to it and server threads can LT_recvRPC on it.
func (i *Instance) RegisterRPC(id int) error {
	if id < FirstUserFunc || id >= MaxFunc {
		return fmt.Errorf("lite: function ids must be in [%d, %d)", FirstUserFunc, MaxFunc)
	}
	if _, ok := i.funcs[id]; ok {
		return fmt.Errorf("lite: RPC function %d already registered", id)
	}
	i.funcs[id] = &rpcFunc{workerPool: i.wake.newPool()}
	return nil
}

// RPCRegistered reports whether fn is registered on this node. A node
// adopting a migrated shard uses it to decide whether serving must be
// stood up from scratch or merged into an existing registration.
func (i *Instance) RPCRegistered(id int) bool {
	_, ok := i.funcs[id]
	return ok
}

func (i *Instance) registerSystemFuncs() {
	sys := &rpcFunc{workerPool: i.wake.newPool()}
	i.funcs[funcControl], i.funcs[funcLock], i.funcs[funcBarrier] = sys, sys, sys
	i.funcs[funcMsg] = &rpcFunc{workerPool: i.wake.newPool()}
}

// setupBinding establishes the client-side ring for (dst, fn). The
// control binding is built directly at bootstrap by the cluster
// manager; all other bindings are negotiated over the control binding.
func (i *Instance) setupBinding(dst, fn int) error {
	if i.bindingTo(dst, fn) != nil {
		return nil
	}
	if fn != funcControl {
		return fmt.Errorf("lite: setupBinding(%d) at boot is control-only", fn)
	}
	if err := validateRingBytes(i.opts.RingBytes); err != nil {
		return err
	}
	remote := i.dep.Instances[dst]
	pa, err := remote.node.Mem.AllocContiguous(i.opts.RingBytes)
	if err != nil {
		return err
	}
	size := i.opts.RingBytes
	i.rings.slot(dst, fn).bind = &binding{dst: dst, fn: fn, ringPA: pa, credit: newRingClient(size)}
	remote.rings.slot(i.node.ID, fn).ring = &srvRing{client: i.node.ID, fn: fn, pa: pa, size: size, credit: newRingServer(size)}
	return nil
}

// getBinding returns the binding for (dst, fn), negotiating a new ring
// over the control channel on first use. Setup is single-flight: all
// concurrent first users share the one ring (clients of a binding
// share the tail pointer, so two independent bindings to one ring
// would clobber each other's frames).
func (i *Instance) getBinding(p *simtime.Proc, dst, fn int, pri Priority) (*binding, error) {
	if dst < 0 || dst >= len(i.dep.Instances) {
		return nil, fmt.Errorf("lite: no node %d", dst)
	}
	if s := i.rings.at(dst, fn); s != nil {
		if s.bind != nil {
			return s.bind, nil
		}
		if st := s.setup; st != nil {
			for !st.done {
				st.cond.Wait(p)
			}
			if st.err != nil {
				return nil, st.err
			}
			return i.bindingTo(dst, fn), nil
		}
	}
	st := &bindSetup{}
	i.rings.slot(dst, fn).setup = st
	pa, size, boot, err := i.ctlBind(p, dst, fn, pri)
	s := i.rings.slot(dst, fn)
	if err == nil {
		s.bind = &binding{dst: dst, fn: fn, ringPA: pa, credit: newRingClient(size), srvBoot: boot}
	}
	st.err = err
	st.done = true
	st.cond.Broadcast(p.Env())
	s.setup = nil
	if err != nil {
		return nil, err
	}
	return s.bind, nil
}

// bindSetup tracks an in-flight binding negotiation.
type bindSetup struct {
	done bool
	err  error
	cond simtime.Cond
}

// token mints the token of a new pending call: the next nonzero
// value of the 28-bit counter whose pending slot is free.
func (i *Instance) token() uint32 {
	i.pending.reserve()
	for {
		i.nextToken = (i.nextToken + 1) & tokenMask
		if i.nextToken != 0 && i.pending.slot(i.nextToken).pc == nil {
			return i.nextToken
		}
	}
}

// seqID allocates a client sequence number for one logical retried
// call. It is monotonic for the life of the process and deliberately
// not reset across instance restarts, so a restarted client can never
// collide with its own stale entries in a server's dedup window.
func (i *Instance) seqID() uint64 {
	i.nextSeq++
	return i.nextSeq
}

// reserveRing claims need aligned bytes in the binding's ring
// (ringClient.reserve), waiting for credit while the ring is full, and
// returns the ring offset to write at and the wrap padding skipped to
// get there. The sender that opens a blocked episode posts its pull
// first. It aborts with ErrNodeDead if the binding is severed (crash or
// membership) and with ErrTimeout if no credit arrives within the RPC
// timeout — a full ring whose head updates were lost must not block
// forever; the retry layer heals it by renegotiating the binding.
//
// A sender that finds the ring full first spins in the kernel for its
// busy window, counting as a kernel-level spinner: the head update
// that frees it is then polled on its time while the shared poller
// sleeps (the caller-poll contract, pollForCaller). Past the window it
// parks on b.space.
func (i *Instance) reserveRing(p *simtime.Proc, b *binding, need int64, probe bool) (off, pad int64, err error) {
	var deadline simtime.Time
	if i.opts.RPCTimeout > 0 {
		deadline = p.Now() + i.opts.RPCTimeout
	}
	for {
		if i.stopped || b.dead || (!probe && i.NodeDead(b.dst)) {
			return 0, 0, ErrNodeDead
		}
		r := b.credit.reserve(need)
		if r.ok {
			if r.wake {
				// This frame turns the server lazy again: senders still
				// parked must re-check and open a new episode.
				b.space.Broadcast(i.cls.Env)
			}
			return r.off, r.pad, nil
		}
		if r.pull {
			i.pullCredit(p, b, r.units)
			continue // posting yielded; credit may already be here
		}
		// Every b.space broadcast moves one of these: credit arrived, a
		// reservation ended the episode, or the binding died or rewound.
		head := b.credit.head
		moved := func() bool { return i.stopped || b.dead || b.credit.head != head || !b.credit.asked }
		i.wake.callerSpins(false)
		i.node.OS.SpinWait(p, &b.space, moved, deadline)
		i.wake.callerStops(false)
		if moved() {
			continue
		}
		if deadline > 0 {
			if p.Now() >= deadline {
				return 0, 0, ErrTimeout
			}
			b.space.WaitTimeout(p, deadline-p.Now())
		} else {
			b.space.Wait(p)
		}
	}
}

// pullCredit posts the credit pull for b: a zero-length write-imm
// stating the sender's tail in units, which the server's poller answers
// by shipping the ring's owed credit. Like the frames it unblocks it is
// never polled; a lost pull ends in the sender's reserveRing timeout.
func (i *Instance) pullCredit(p *simtime.Proc, b *binding, units int64) {
	i.obsReg().Add("lite.ring.credit_pull", 1)
	_ = i.postShared(p, b.dst, PriHigh, []rnic.WR{{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Inline:    i.wantInline(0),
		RemoteKey: i.dep.Instances[b.dst].globalMR.Key(),
		Imm:       encodeImm(tagCreditReq, b.fn, units*ringAlign),
	}})
}

// ---- small-message fast path ----

// maxPooledFrames bounds the per-instance frame free list; frames
// beyond the cap (or oversized ones) fall back to the GC.
const maxPooledFrames = 64

// maxFrameBytes is the largest frame the pool keeps; jumbo LT_send
// payloads are not worth retaining.
const maxFrameBytes = 64 << 10

// getFrame returns a framing buffer of exactly n bytes, reusing a
// pooled one when possible so the posting hot path stops allocating
// per message (the NIC snapshots the payload synchronously at post
// time, which is what makes recycling safe).
func (i *Instance) getFrame(n int64) []byte {
	if k := len(i.framePool); k > 0 {
		buf := i.framePool[k-1]
		i.framePool = i.framePool[:k-1]
		if int64(cap(buf)) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

// putFrame recycles a framing buffer.
func (i *Instance) putFrame(buf []byte) {
	if cap(buf) > maxFrameBytes || len(i.framePool) >= maxPooledFrames {
		return
	}
	i.framePool = append(i.framePool, buf)
}

// wantInline reports whether an n-byte payload should ride inline in
// the WQE (skipping the NIC's payload DMA read).
func (i *Instance) wantInline(n int64) bool {
	return n <= int64(i.cfg.MaxInline)
}

// statusDropped completes a chain that never reached the NIC (no slot).
const statusDropped rnic.Status = -1

// sharedQP picks a shared QP to dst (round-robin within the QoS range),
// reaps it and serves its outbox with the slots that frees.
func (i *Instance) sharedQP(p *simtime.Proc, dst int, pri Priority) *qpSigState {
	lo, hi := i.qos.qpRange(pri, len(i.qpSig[dst]))
	sig := i.qpSig[dst][lo+i.nextQP[dst]%(hi-lo)]
	i.nextQP[dst]++
	i.reap(sig, 0)
	i.serveOutbox(p, sig)
	return sig
}

// reap frees the slots of every in-flight batch whose completion has
// arrived (or was claimed by the caller: claimed), without blocking.
func (i *Instance) reap(sig *qpSigState, claimed uint64) {
	sig.sq.reap(func(wrid uint64) bool {
		_, ok := i.sendDisp.TryClaim(wrid)
		return ok || wrid == claimed
	})
}

// postShared posts a chain of work requests to dst over one shared QP
// behind a single doorbell (post), or queues a copy of it in the
// QP's outbox if the queue is full or the outbox holds chains already.
// Either way it returns at once.
func (i *Instance) postShared(p *simtime.Proc, dst int, pri Priority, wrs []rnic.WR) error {
	sig := i.sharedQP(p, dst, pri)
	if sig.sq.room(1) > 0 {
		return i.post(p, sig, outboxed{wrs: wrs})
	}
	own := append([]rnic.WR(nil), wrs...)
	for k := range own {
		own[k].LocalBuf = bytes.Clone(own[k].LocalBuf) // the caller reuses its buffers
	}
	i.enqueue(sig, outboxed{wrs: own})
	return nil
}

// post posts c behind one doorbell into the QP's free slots: a slot per
// WR of a one-sided chain, held until its caller's completion, or one
// slot for a two-sided chain under selective signaling
// (sendQueue.twoSided).
func (i *Instance) post(p *simtime.Proc, sig *qpSigState, c outboxed) error {
	wrs := c.wrs
	if c.oneSide {
		sig.sq.take(len(wrs))
		err := i.ctx.PostSendList(p, sig.qp, wrs)
		if err != nil {
			sig.sq.give(len(wrs))
		}
		return err
	}
	wrid := sig.sq.twoSided(len(wrs), i.wrID)
	if wrid != 0 {
		wrs[len(wrs)-1].Signaled = true
		wrs[len(wrs)-1].WRID = wrid
	}
	err := i.ctx.PostSendList(p, sig.qp, wrs)
	if err != nil && wrid != 0 {
		i.sendCQ.Push(i.cls.Env, rnic.CQE{WRID: wrid, Status: statusDropped})
	}
	return err
}

// enqueue appends c to the QP's outbox, or fails it at once if the
// peer is declared dead.
func (i *Instance) enqueue(sig *qpSigState, c outboxed) {
	if i.NodeDead(sig.qp.RemoteNode()) {
		i.dropChain(c)
		return
	}
	i.obsReg().Add("lite.sq.outboxed", int64(len(c.wrs)))
	if sig.sq.queue(c) {
		i.startDrainer(sig)
	}
}

// serveOutbox posts from the QP's outbox head, in order, while the QP
// has free slots.
func (i *Instance) serveOutbox(p *simtime.Proc, sig *qpSigState) {
	for c, ok := sig.sq.next(); ok; c, ok = sig.sq.next() {
		if i.post(p, sig, c) != nil && c.oneSide {
			i.dropChain(c)
		}
	}
	if sig.sq.startDrainer() {
		i.startDrainer(sig)
	}
}

// startDrainer starts the QP's one-shot drainer: it waits on the
// batch sendQueue.drainFor names, reaps and serves the outbox, until
// drainFor stops it.
func (i *Instance) startDrainer(sig *qpSigState) {
	i.cls.GoDaemonOn(i.node.ID, "lite-sq-drain", func(p *simtime.Proc) {
		for wrid, ok := sig.sq.drainFor(); ok; wrid, ok = sig.sq.drainFor() {
			i.sendDisp.WaitQuiet(p, wrid)
			i.reap(sig, wrid)
			i.serveOutbox(p, sig)
		}
	})
}

// dropChain fails one outboxed chain: a one-sided chain's caller gets a
// statusDropped completion; a two-sided one is dropped like a lost WR.
func (i *Instance) dropChain(c outboxed) {
	i.obsReg().Add("lite.sq.outbox_failed", int64(len(c.wrs)))
	if c.oneSide {
		i.sendCQ.Push(i.cls.Env, rnic.CQE{WRID: c.wrs[0].WRID, Status: statusDropped})
	}
}

// failOutbox fails every chain queued toward dst at once.
func (i *Instance) failOutbox(dst int) {
	for _, sig := range i.qpSig[dst] {
		for _, c := range sig.sq.failAll() {
			i.dropChain(c)
		}
	}
}

// postToRing writes a framed message into the binding's ring at the
// server with one unsignaled write-imm (§5.1: the sending state is
// never polled; reply or timeout detects failure). Frames that fit
// Params.MaxInline travel inline in the WQE and skip the payload DMA
// stage. token and replyPA say where the answer goes; an LT_send
// message, which has none, passes zeros.
func (i *Instance) postToRing(p *simtime.Proc, b *binding, c *rpcCall, token uint32, replyPA hostmem.PAddr) error {
	if c.seq != 0 && c.attempt == 0 {
		// Until an attempt ends ambiguously the logical call is
		// (re)stamped with the current server incarnation; after that
		// the stamp freezes so a restart in between is detectable
		// server-side.
		c.boot = b.srvBoot
	}
	need := int64(ringHdr + len(c.input))
	aligned := (need + ringAlign - 1) &^ (ringAlign - 1)
	off, pad, err := i.reserveRing(p, b, aligned, c.probe)
	if err != nil {
		return err
	}

	msg := i.getFrame(need)
	binary.LittleEndian.PutUint32(msg[0:], uint32(pad))
	binary.LittleEndian.PutUint32(msg[4:], token)
	binary.LittleEndian.PutUint64(msg[8:], uint64(replyPA))
	binary.LittleEndian.PutUint32(msg[16:], uint32(len(c.input)))
	binary.LittleEndian.PutUint64(msg[20:], c.seq)
	binary.LittleEndian.PutUint64(msg[28:], c.boot)
	binary.LittleEndian.PutUint16(msg[36:], c.attempt)
	binary.LittleEndian.PutUint16(msg[38:], c.tenant)
	copy(msg[ringHdr:], c.input)

	i.qos.throttle(p, c.pri, need)
	err = i.postShared(p, b.dst, c.pri, []rnic.WR{{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Signaled:  false,
		Inline:    i.wantInline(need),
		LocalBuf:  msg,
		Len:       need,
		RemoteKey: i.dep.Instances[b.dst].globalMR.Key(),
		RemoteOff: int64(b.ringPA) + off,
		Imm:       encodeImm(tagRPCReq, c.fn, off),
		Trace:     procSpan(p),
	}})
	// The NIC snapshotted the payload synchronously inside the post, so
	// the frame can be recycled immediately.
	i.putFrame(msg)
	return err
}

// rpc implements LT_RPC, once per attempt, for every caller: write-imm
// the input into the server's ring, then wait (adaptively) for the
// answer write-imm that lands directly in this node's response buffer.
// The answer is the reply or a typed refusal (see handleAnswer).
func (i *Instance) rpc(p *simtime.Proc, c *rpcCall) ([]byte, error) {
	reg := i.obsReg()
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(i.cfg.LITECheck)
	reg.AddSpan(t0, p.Now(), "lite.check", parent)
	if i.stopped {
		return nil, ErrNodeDead
	}
	if c.dst == i.node.ID {
		return i.rpcLocal(p, c)
	}
	b, err := i.getBinding(p, c.dst, c.fn, c.pri)
	if err != nil {
		return nil, err
	}
	token := i.token()
	respPA := i.scratchAlloc(c.maxReply)
	pc := &pendingCall{respPA: respPA, dst: c.dst, probe: c.probe}
	i.pending.put(token, pc)

	post := reg.StartSpan(p.Now(), "lite.rpc.post", parent)
	err = i.postToRing(p, b, c, token, respPA)
	post.Done(p.Now())
	if err != nil {
		i.pending.del(token)
		return nil, err
	}
	var deadline simtime.Time
	if c.timeout > 0 {
		deadline = p.Now() + c.timeout
	}
	wait := reg.StartSpan(p.Now(), "lite.rpc.wait", parent)
	waited := i.awaitReply(p, pc, deadline, c.user)
	wait.Done(p.Now())
	if !waited {
		// The server may yet deliver a late reply write-imm into
		// respPA. Keep the pending entry and quarantine the buffer so
		// the allocator cannot hand it out on ring wraparound while
		// that write is in flight; the quarantine lifts when the answer
		// lands or the membership epoch advances past this call.
		pc.abandoned = true
		i.scratch.quarantine(respPA, c.maxReply, token, i.epoch)
		return nil, ErrTimeout
	}
	if pc.err != nil {
		i.scratchDone(respPA, c.maxReply)
		return nil, pc.err
	}
	if pc.respLen > c.maxReply {
		// The NIC has already written the whole reply, past the
		// caller's maxReply bytes of scratch; only the copy is clipped.
		reg.Add("lite.rpc.reply_truncated", 1)
		pc.respLen = c.maxReply
	}
	// The NIC wrote the reply directly into this buffer (zero copy at
	// the client side); materialize it for the caller.
	out := make([]byte, pc.respLen)
	err = i.node.Mem.Read(respPA, out)
	i.scratchDone(respPA, c.maxReply)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// awaitReply is LT_RPC's adaptive wait for the reply write-imm: a busy
// window, then sleep. No reply waits for a poller wakeup while its
// caller still spins: a kernel-level caller, spinning in the kernel,
// polls the receive CQ for the sleeping poller (pollForCaller); a
// user-level one spins on the §5.2 completion page in user space, so
// it wakes the poller now and keeps it awake for its window (wake.go).
func (i *Instance) awaitReply(p *simtime.Proc, pc *pendingCall, deadline simtime.Time, user bool) bool {
	ready := func() bool { return pc.done }
	if i.wake.callerSpins(user) {
		i.obsReg().Add("lite.poller.prewakes", 1)
		i.recvCQ.Broadcast(i.cls.Env) // the poller is its only waiter
	}
	i.node.OS.SpinWait(p, &pc.cond, ready, deadline)
	i.wake.callerStops(user)
	return i.node.OS.SleepWait(p, &pc.cond, ready, deadline)
}

// rpcLocal dispatches an RPC whose server is this node without
// touching the network.
func (i *Instance) rpcLocal(p *simtime.Proc, c *rpcCall) ([]byte, error) {
	f, ok := i.funcs[c.fn]
	if !ok {
		return nil, ErrNoSuchRPC
	}
	pc := &pendingCall{}
	call := &Call{Func: c.fn, Src: i.node.ID, Tenant: c.tenant, Input: append([]byte(nil), c.input...), local: true, pend: pc}
	i.memcpyCost(p, int64(len(c.input)))
	i.dispatchCall(f, call)
	var deadline simtime.Time
	if c.timeout > 0 {
		deadline = p.Now() + c.timeout
	}
	if !i.node.OS.AdaptiveWait(p, &pc.cond, func() bool { return pc.done }, deadline) {
		return nil, ErrTimeout
	}
	if pc.err != nil {
		return nil, pc.err
	}
	return call.localReply, nil
}

func (i *Instance) dispatchCall(f *rpcFunc, call *Call) {
	f.queue.Push(call)
	switch f.dispatch(f.queue.Len(), f.spin.Waiters()) {
	case wakeSpinner:
		f.spin.SignalNewest(i.cls.Env)
	case wakeSleeper:
		f.sleep.Signal(i.cls.Env)
	}
}

// recvRPCInternal implements LT_recvRPC: wait (adaptively) for the
// next call to the function and return it, paying the single data move
// from the ring into the caller's memory (§5.2).
func (i *Instance) recvRPCInternal(p *simtime.Proc, fn int) (*Call, error) {
	f, ok := i.funcs[fn]
	if !ok {
		return nil, ErrNoSuchRPC
	}
	call, err := i.awaitCall(p, f)
	if err != nil {
		return nil, err
	}
	i.memcpyCost(p, int64(len(call.Input)))
	// Stamp the dequeue instant: reply time minus this is the observed
	// handler service time the admission cost EWMA learns from.
	call.recvAt = p.Now()
	// Count the serve on the responder node: this is the "server CPU
	// got involved" signal one-sided data paths are measured against.
	i.obsReg().Add("lite.rpc.served", 1)
	if !call.local {
		// Advance the ring header; the new value ships from the
		// background thread (Figure 9, step f). headDelta is zero for
		// calls that were fenced and re-dispatched (credited at hold).
		if call.headDelta > 0 {
			i.queueHeadUpdate(p, call.Src, call.Func, call.headDelta)
		}
		call.exec = f
		f.executing++
	}
	return call, nil
}

// awaitCall parks the calling server thread until a call is queued for
// f and dequeues it: the adaptive wait, spinning on f.spin and then
// sleeping on f.sleep. A sleeper woken for a call still in the receive
// CQ (f.called) pays its wakeup and spins, so the call finds it warm.
func (i *Instance) awaitCall(p *simtime.Proc, f *rpcFunc) (*Call, error) {
	boot := i.boots
	gone := func() bool { return !i.alive(boot) }
	ready := func() bool { return gone() || f.queue.Len() > 0 }
	woken := func() bool { return ready() || f.called() }
	f.enter()
	for {
		i.node.OS.SpinWait(p, &f.spin, ready, 0)
		if !ready() && i.node.OS.SleepUnless(p, &f.sleep, woken, gone) && i.alive(boot) {
			f.leftSleep()
		}
		if !i.alive(boot) {
			f.quits()
			return nil, ErrNodeDead
		}
		if f.queue.Len() == 0 {
			continue // another server thread took it during our wakeup
		}
		f.takes()
		call, _ := f.queue.Pop()
		return call, nil
	}
}

// replyRPCInternal implements LT_replyRPC: write-imm the return value
// directly into the client's response buffer.
func (i *Instance) replyRPCInternal(p *simtime.Proc, c *Call, output []byte, pri Priority) error {
	reg := i.obsReg()
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(i.cfg.LITECheck)
	reg.AddSpan(t0, p.Now(), "lite.check", parent)
	if c.local {
		c.localReply = append([]byte(nil), output...)
		i.memcpyCost(p, int64(len(output)))
		c.pend.done = true
		c.pend.cond.Broadcast(i.cls.Env)
		return nil
	}
	if c.ded != nil {
		// Remember the outcome so a duplicate retry of this sequence
		// number replays the reply instead of re-running the handler.
		c.ded.done = true
		c.ded.call = nil
		c.ded.reply = append([]byte(nil), output...)
	}
	// Feed the observed service time back into the admission cost
	// model and release the call's admitted cost. Pure integer
	// bookkeeping — no virtual time moves, so an admission-free
	// timeline is unperturbed.
	if c.recvAt > 0 {
		i.admServiceObserve(c.Func, p.Now()-c.recvAt)
		c.recvAt = 0
	}
	i.admRelease(c)
	if c.exec != nil {
		c.exec.executing--
		c.exec = nil
	}
	post := reg.StartSpan(p.Now(), "lite.rpc.post", parent)
	i.qos.throttle(p, pri, int64(len(output)))
	wr := i.answerWR(c.Src, tagRPCRep, c.token, c.replyPA, output)
	wr.Trace = parent
	err := i.postShared(p, c.Src, pri, []rnic.WR{wr})
	post.Done(p.Now())
	return err
}

// sendInternal implements LT_send: a one-way message queued on the
// destination's funcMsg, delivered through the funcMsg ring.
func (i *Instance) sendInternal(p *simtime.Proc, dst int, data []byte, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	if dst == i.node.ID {
		i.memcpyCost(p, int64(len(data)))
		i.dispatchCall(i.funcs[funcMsg], &Call{Func: funcMsg, Src: dst, Input: append([]byte(nil), data...)})
		return nil
	}
	b, err := i.getBinding(p, dst, funcMsg, pri)
	if err != nil {
		return err
	}
	return i.postToRing(p, b, &rpcCall{dst: dst, fn: funcMsg, input: data, pri: pri}, 0, 0)
}

// recvInternal implements the receive side of LT_send: the wait of
// LT_recvRPC on funcMsg.
func (i *Instance) recvInternal(p *simtime.Proc) (Message, error) {
	call, err := i.awaitCall(p, i.funcs[funcMsg])
	if err != nil {
		return Message{}, err
	}
	i.memcpyCost(p, int64(len(call.Input)))
	return Message{Src: call.Src, Data: call.Input}, nil
}

// ---- shared polling thread (§5.1) ----

// pollerHandleCost is the software cost of demultiplexing one CQE in
// the shared polling thread.
const pollerHandleCost = 120 * time.Nanosecond

// pollerBatchCost is the amortized cost of each additional CQE drained
// in the same sweep: the poll descriptor and cache lines are hot, so
// coalesced completions demultiplex cheaper than the first one.
const pollerBatchCost = 40 * time.Nanosecond

// pollerLoop is the per-node shared polling thread: it busy-polls the
// single shared receive CQ for all RPC clients and functions, parses
// the IMM metadata, and routes work — one thread per node, shared by
// every application (§5.1, §6.1). It uses the same adaptive model as
// user threads so an idle node does not burn a core forever (wake.go).
// Completions that accumulated while it worked are drained in one
// sweep at the amortized batch cost — the consumer half of CQ
// moderation (the producer half is selective signaling: unsignaled
// WRs never generate a CQE at all).
//
// A keepalive is the one completion that never has a follow-up: the
// manager's probe is answered on the spot and nothing else on this node
// moved. So when the first batch after a wakeup holds nothing but
// keepalives, the poller goes straight back to sleep instead of opening
// a busy window for traffic the probe does not bring. Any other CQE in
// that batch, or an empty CQ after the wakeup, keeps the window.
func (i *Instance) pollerLoop(p *simtime.Proc) {
	boot := i.boots
	woke := false // the poller has just slept and handled nothing since
	for i.alive(boot) {
		if cqe, ok := i.recvCQ.TryPoll(); ok {
			p.Work(pollerHandleCost)
			pings := i.handleRecvCQE(p, cqe)
			for i.alive(boot) {
				cqe, ok := i.recvCQ.TryPoll()
				if !ok {
					break
				}
				p.Work(pollerBatchCost)
				i.obsReg().Add("lite.poller.coalesced", 1)
				pings = i.handleRecvCQE(p, cqe) && pings
			}
			if woke && pings && i.alive(boot) && i.wake.pollerIdles() {
				if !i.pollerSleep(p, boot) {
					return
				}
				continue
			}
			woke = false
			continue
		}
		woke = false
		// Busy window.
		t0 := p.Now()
		if i.recvCQ.WaitTimeout(p, i.cfg.AdaptivePollWindow) {
			p.Charge(p.Now() - t0)
			continue
		}
		p.Charge(p.Now() - t0)
		if i.wake.pollerIdles() && !i.pollerSleep(p, boot) {
			return
		}
		woke = true
	}
}

// pollerSleep parks the poller until the next completion nobody else
// polls for, or until a user-level caller needs it, then charges its
// wakeup. It reports false if the poller's incarnation ended meanwhile:
// then it touches the wake rule no more, and if it was woken with its
// node down, it pays no wakeup either.
func (i *Instance) pollerSleep(p *simtime.Proc, boot uint64) bool {
	i.obsReg().Add("lite.poller.sleeps", 1)
	for {
		i.recvCQ.Wait(p)
		if !i.alive(boot) {
			return false
		}
		i.wake.pollerWoken()
		if !i.pollForCaller(p, boot) || !i.wake.pollerIdles() {
			break
		}
	}
	if !i.alive(boot) {
		return false
	}
	p.Work(i.cfg.WakeupLatency)
	if !i.alive(boot) {
		return false
	}
	i.wake.pollerAwake()
	return true
}

// prewakeWorker is the receive CQ's direct-delivery hook
// (rnic.CQ.SetDeliver). It never takes a completion; it reads the
// immediate of each one as it lands, so a request to a pool, but for
// a keepalive, can wake a sleeper at its arrival (requestLands). The
// completion queues as ever; the poller dispatches it, and the woken
// thread, by then in its busy window, takes the call.
func (i *Instance) prewakeWorker(env *simtime.Env, cqe rnic.CQE) bool {
	if !cqe.HasImm {
		return false
	}
	tag, fn, off := decodeImm(cqe.Imm)
	if tag != tagRPCReq {
		return false
	}
	if fn == funcControl {
		ring := i.ringFrom(cqe.SrcNode, fn)
		var head [1]byte
		if ring != nil && i.node.Mem.Read(ring.pa+hostmem.PAddr(off+ringHdr), head[:]) == nil && isPing(fn, cqe.Len-ringHdr, head[:]) {
			return false
		}
	}
	if f := i.funcs[fn]; f != nil && i.wake.requestLands(f.workerPool, f.spin.Waiters(), f.sleep.Waiters()) {
		f.sleep.Signal(env)
		i.obsReg().Add("lite.rpc.worker_prewakes", 1)
	}
	return false
}

// isPing: is an n-byte input to fn that begins with head a keepalive?
func isPing(fn int, n int64, head []byte) bool {
	return fn == funcControl && n == 1 && head[0] == copPing
}

// pollForCaller runs when the shared poller is woken from sleep: while a
// kernel-level caller spins on its reply, the queued completions are
// demultiplexed on that caller's behalf — at the poller's per-CQE cost
// but on the caller's time, which its busy wait is already charging.
// It reports whether it handled a completion and left the CQ empty, so
// the poller may sleep on without paying a wakeup. The body runs on the
// poller's proc only because the poller is the CQ's only waiter.
func (i *Instance) pollForCaller(p *simtime.Proc, boot uint64) bool {
	polled, cost := false, pollerHandleCost
	for i.wake.pollsForCaller() && i.alive(boot) {
		cqe, ok := i.recvCQ.TryPoll()
		if !ok {
			break
		}
		p.Sleep(cost)
		polled, cost = true, pollerBatchCost
		i.obsReg().Add("lite.poller.caller_polled", 1)
		i.handleRecvCQE(p, cqe)
	}
	return polled && i.alive(boot) && i.recvCQ.Len() == 0
}

// handleRecvCQE demultiplexes one receive completion; ping reports a
// keepalive, answered on the spot (see handleRPCReq).
func (i *Instance) handleRecvCQE(p *simtime.Proc, cqe rnic.CQE) (ping bool) {
	i.topUpRecvs(p)
	if !cqe.HasImm {
		return
	}
	tag, fn, v := decodeImm(cqe.Imm)
	switch tag {
	case tagRPCReq:
		return i.handleRPCReq(p, cqe.SrcNode, fn, v)
	case tagRPCRep, tagRPCShed, tagRPCMaybe, tagRPCMoved:
		i.handleAnswer(tag, cqe)
	case tagHeadUpd:
		if b := i.bindingTo(cqe.SrcNode, fn); b != nil {
			b.credit.credited(v)
			b.space.Broadcast(i.cls.Env)
		}
	case tagCreditReq:
		if ring := i.ringFrom(cqe.SrcNode, fn); ring != nil {
			i.shipCredit(p, ring, ring.credit.pulled(v/ringAlign))
		}
	}
	return false
}

// handleAnswer completes the pending call an answer write-imm names:
// with the reply the NIC has already written into the call's response
// buffer, or with the typed error a notice stands for. A shed or moved
// notice may carry one 8-byte word in that buffer — the Retry-After
// hint, the new home — which becomes the rich error (OverloadError,
// MovedError) so the retry layer can honor it.
func (i *Instance) handleAnswer(tag int, cqe rnic.CQE) {
	token := cqe.Imm & tokenMask
	pc := i.pending.get(token)
	if pc == nil {
		return
	}
	i.pending.del(token)
	if pc.abandoned {
		// The answer raced with the waiter's timeout. A reply has now
		// landed and a notice means none ever will, so either way the
		// quarantined response buffer is safe to reuse.
		i.scratch.release(token)
		return
	}
	switch tag {
	case tagRPCRep:
		pc.respLen = cqe.Len
	case tagRPCShed:
		pc.err = ErrOverloaded
		if w, ok := i.answerWord(pc, cqe); ok && simtime.Time(w) > 0 {
			pc.err = &OverloadError{RetryAfter: simtime.Time(w)}
		}
	case tagRPCMaybe:
		i.obsReg().Add("lite.rpc.maybe_executed", 1)
		pc.err = ErrMaybeExecuted
	case tagRPCMoved:
		i.obsReg().Add("lite.rpc.moved", 1)
		pc.err = ErrMoved
		if w, ok := i.answerWord(pc, cqe); ok {
			pc.err = &MovedError{To: int(w)}
		}
	}
	pc.done = true
	pc.cond.Broadcast(i.cls.Env)
}

// answerWord reads the 8-byte word a notice carried into pc's response
// buffer, if it carried one.
func (i *Instance) answerWord(pc *pendingCall, cqe rnic.CQE) (uint64, bool) {
	var buf [8]byte
	if cqe.Len < 8 || i.node.Mem.Read(pc.respPA, buf[:]) != nil {
		return 0, false
	}
	return binary.LittleEndian.Uint64(buf[:]), true
}

// reqHdr is a request frame's header as the server reads it out of the
// ring (layout at ringHdr).
type reqHdr struct {
	pad     int64
	token   uint32
	replyPA hostmem.PAddr
	tenant  uint16
	retryStamp
}

// readReq parses the request frame at ring offset off: its header and
// a copy of its input. ok is false for a frame that does not fit the
// ring.
func (i *Instance) readReq(ring *srvRing, off int64) (h reqHdr, input []byte, ok bool) {
	var hdr [ringHdr]byte
	if err := i.node.Mem.Read(ring.pa+hostmem.PAddr(off), hdr[:]); err != nil {
		return h, nil, false
	}
	h.pad = int64(binary.LittleEndian.Uint32(hdr[0:]))
	h.token = binary.LittleEndian.Uint32(hdr[4:])
	h.replyPA = hostmem.PAddr(binary.LittleEndian.Uint64(hdr[8:]))
	inLen := int64(binary.LittleEndian.Uint32(hdr[16:]))
	h.seq = binary.LittleEndian.Uint64(hdr[20:])
	h.boot = binary.LittleEndian.Uint64(hdr[28:])
	h.attempt = binary.LittleEndian.Uint16(hdr[36:])
	h.tenant = binary.LittleEndian.Uint16(hdr[38:])
	if off+ringHdr+inLen > ring.size || h.pad >= ring.size {
		return h, nil, false
	}
	input = make([]byte, inLen)
	_ = i.node.Mem.Read(ring.pa+hostmem.PAddr(off+ringHdr), input)
	// Nothing reads a parsed frame again: its bytes need not stay
	// materialized until the client next writes over them.
	_ = i.node.Mem.Discard(ring.pa+hostmem.PAddr(off), ringHdr+inLen)
	return h, input, true
}

// handleRPCReq parses a request frame out of the server-side ring and
// routes it. In order, a frame is: a keepalive, answered here by the
// poller; an LT_send message; a call to a function that moved away,
// bounced with the new home; a call to an unknown function, dropped
// (the client times out); a retry the dedup window answers
// (dedupAnswer); a call held by a migration fence; a call shed by
// admission control (admitReq); or, finally, dispatched to the
// function's queue (applications) or the system worker pool
// (LITE-internal functions). Every frame's ring space is credited
// exactly once: at once for a frame not dispatched, when a server
// thread dequeues the call otherwise. ping reports a keepalive.
func (i *Instance) handleRPCReq(p *simtime.Proc, src, fn int, off int64) (ping bool) {
	ring := i.ringFrom(src, fn)
	if ring == nil {
		return
	}
	h, input, ok := i.readReq(ring, off)
	if !ok {
		return
	}
	delta := ring.credit.arrive(h.pad, ringHdr+int64(len(input)))

	if isPing(fn, int64(len(input)), input) {
		// A keepalive is answered here, by the poller, with [cstOK]
		// [membership epoch]: no system worker wakes to build nine
		// bytes, and pollerLoop opens no busy window after it. The reply
		// goes out through the header-update thread, which never parks
		// on a send queue, so a notification stuck toward a crashed peer
		// cannot hold it.
		i.obsReg().Add("lite.heartbeat.answered", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		i.queueNotify(p, headUpdate{tag: tagRPCRep, client: src, token: h.token, replyPA: h.replyPA, reply: wire{cstOK}.u64(i.epoch)})
		return true
	}
	if fn == funcMsg {
		i.dispatchCall(i.funcs[fn], &Call{Func: fn, Src: src, Input: input})
		// Messages are consumed immediately; credit the ring now.
		i.queueHeadUpdate(p, src, fn, delta)
		return
	}
	if to, ok := i.own.bounce(fn); ok {
		// This function migrated away from this node. The ring stays
		// alive exactly for this moment: stale clients (and retries of
		// calls whose replies were lost) are answered with the typed
		// moved notice carrying the new home, never silently dropped.
		// Checked before the dedup lookup — the windows transferred with
		// the migration, so any replay must happen at the new home.
		i.obsReg().Add("lite.rpc.moved_bounce", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		i.queueNotify(p, headUpdate{tag: tagRPCMoved, client: src, token: h.token, replyPA: h.replyPA, reply: wire{}.u64(uint64(to))})
		return
	}
	f, ok := i.funcs[fn]
	if !ok {
		// Unknown function: reclaim the ring space; the client times out.
		i.queueHeadUpdate(p, src, fn, delta)
		return
	}
	if i.dedupAnswer(p, ring, &h, delta) {
		return
	}
	call := &Call{Func: fn, Src: src, Tenant: h.tenant, Input: input, token: h.token, replyPA: h.replyPA, headDelta: delta}
	if i.own.holds(fn) {
		// Fenced mid-migration: hold the call, to bounce it on commit or
		// dispatch it on abort. Its dedup entry goes in now, so a retry
		// redirects into it instead of being held a second time; the
		// ring is credited now, so an abort must not credit it again.
		i.obsReg().Add("lite.migrate.held", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		call.headDelta = 0
		ring.remember(h.seq, call)
		f.held = append(f.held, call)
		return
	}
	if !i.admitReq(p, f, call, &h) {
		return
	}
	ring.remember(h.seq, call)
	i.dispatchCall(f, call)
	// The paper adjusts the header at LT_recvRPC time and ships it from
	// a background thread; the delta rides on the call until consumed.
	return false
}

// dedupAnswer is handleRPCReq's dedup seam. A sequenced retry that the
// ring's window remembers is answered from the window: the cached reply
// is replayed, or the in-flight call's eventual reply is redirected to
// this newest attempt's coordinates. A retry of a timed-out call whose
// first attempt targeted an earlier incarnation of this server gets the
// maybe-executed notice: the window that could have remembered it died
// with that incarnation's rings, so whether it executed is unknowable
// here, and running the handler again could execute it twice. It
// reports whether the frame was answered (and credited) here.
func (i *Instance) dedupAnswer(p *simtime.Proc, ring *srvRing, h *reqHdr, delta int64) bool {
	if h.seq == 0 {
		return false
	}
	if e := ring.dedupLookup(h.seq); e != nil {
		// The frame still consumed ring space, so always credit it.
		i.queueHeadUpdate(p, ring.client, ring.fn, delta)
		if e.done {
			i.obsReg().Add("lite.rpc.dedup_replay", 1)
			i.queueNotify(p, headUpdate{tag: tagRPCRep, client: ring.client, token: h.token, replyPA: h.replyPA, reply: e.reply})
		} else {
			i.obsReg().Add("lite.rpc.dedup_redirect", 1)
			e.call.token = h.token
			e.call.replyPA = h.replyPA
		}
		return true
	}
	if h.attempt > 0 && !ring.bootKnown(h.boot) {
		i.obsReg().Add("lite.rpc.dedup_ambiguous", 1)
		i.queueHeadUpdate(p, ring.client, ring.fn, delta)
		i.queueNotify(p, headUpdate{tag: tagRPCMaybe, client: ring.client, token: h.token})
		return true
	}
	return false
}

// admitReq is handleRPCReq's admission seam. With admission control on
// (Options.AdmissionHighWater), a call to an application function is
// admitted — recording on the call the cost its bank was charged — or
// shed: its frame is credited at once and the client told fast, by a
// notice that carries a Retry-After hint. It reports whether the call
// may run.
func (i *Instance) admitReq(p *simtime.Proc, f *rpcFunc, call *Call, h *reqHdr) bool {
	if call.Func < FirstUserFunc {
		return true
	}
	reg := i.obsReg()
	reg.Observe("lite.rpc.queue_depth", simtime.Time(f.queue.Len()))
	if i.opts.AdmissionHighWater <= 0 {
		return true
	}
	p.Work(i.cfg.AdmissionCheck)
	// Work conservation: a server thread is parked that no queued call
	// has already claimed, so this call would run at once. Banks
	// arbitrate between callers only when every worker is busy.
	idle := f.idle(f.queue.Len())
	a := i.admFor(call.Func)
	floored := a.idleAdmits
	w := int64(1)
	if call.Tenant != 0 {
		// A tenant-tagged request draws on its tenant's weighted bank,
		// with the extra credential lookup charged.
		p.Work(i.cfg.TenantCheck)
		w = i.dep.tenantWeight(call.Tenant)
	}
	cost, hint, ok := a.admit(keyOf(call), w, int64(len(call.Input)), f.queue.Len(), idle)
	if call.Tenant != 0 {
		i.tenantCount(call.Tenant, tenObsAdmit, ok)
	}
	if a.idleAdmits != floored {
		reg.Add("lite.adm.idle_admit", 1)
	}
	if ok {
		call.admCost = cost
		return true
	}
	// Shed: a notice instead of letting the client burn a full RPC
	// timeout, shipping the Retry-After estimate (if any) in the call's
	// reply buffer (every reply buffer owns at least a cache line, so
	// the 8-byte hint always has a landing zone).
	reg.Add("lite.rpc.shed", 1)
	i.queueHeadUpdate(p, call.Src, call.Func, call.headDelta)
	shed := headUpdate{tag: tagRPCShed, client: call.Src, token: h.token}
	if hint > 0 {
		shed.reply = wire{}.u64(uint64(hint))
		shed.replyPA = h.replyPA
	}
	i.queueNotify(p, shed)
	return false
}

// queueHeadUpdate returns delta bytes of consumed ring space to the
// client: the ring's credit half (ringServer.owe) decides what ships
// now, from the background header-update thread (step f in Figure 9).
func (i *Instance) queueHeadUpdate(p *simtime.Proc, client, fn int, delta int64) {
	if ring := i.ringFrom(client, fn); ring != nil { // nil: torn down with its client
		i.shipCredit(p, ring, ring.credit.owe(delta))
	}
}

// shipCredit queues c as head updates, split to what one IMM carries.
func (i *Instance) shipCredit(p *simtime.Proc, ring *srvRing, c credits) {
	for c > 0 {
		i.obsReg().Add("lite.ring.credit_wr", 1)
		i.queueNotify(p, headUpdate{tag: tagHeadUpd, client: ring.client, fn: ring.fn, delta: c.next()})
	}
}

// queueNotify hands any notification (credit, shed, reply replay) to
// the background header-update thread.
func (i *Instance) queueNotify(p *simtime.Proc, u headUpdate) {
	if i.stopped {
		return // crashed mid-consume: the notification dies with the node
	}
	if !i.headUpd.TrySend(p, u) {
		// The queue is sized far beyond any realistic backlog; losing a
		// credit would leak ring space, so fail loudly.
		panic("lite: header-update queue overflow")
	}
}

// headUpdBatchMax bounds how many queued head updates the background
// thread drains into one doorbell-batched burst.
const headUpdBatchMax = 16

// notifyWR builds the write-imm for one queued notification: a
// zero-length ring credit, or an answer (answerWR).
func (i *Instance) notifyWR(u headUpdate) rnic.WR {
	if u.tag != tagHeadUpd {
		return i.answerWR(u.client, u.tag, u.token, u.replyPA, u.reply)
	}
	return rnic.WR{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Inline:    i.wantInline(0),
		RemoteKey: i.dep.Instances[u.client].globalMR.Key(),
		Imm:       encodeImm(tagHeadUpd, u.fn, u.delta),
	}
}

// answerWR builds the one write-imm form of every answer to a call
// attempt: the payload lands in the attempt's reply buffer at replyPA,
// then the IMM names the answer's kind (tag) and the attempt's token.
// A reply, a shed (payload: an optional Retry-After hint), a
// maybe-executed notice (no payload) and a moved notice (payload: the
// new home) differ only in tag and payload. Every reply buffer owns at
// least a cache line, so an 8-byte payload always has a landing zone.
// Unsignaled, like the frames: the caller's wait detects a lost answer.
func (i *Instance) answerWR(client, tag int, token uint32, replyPA hostmem.PAddr, payload []byte) rnic.WR {
	return rnic.WR{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Inline:    i.wantInline(int64(len(payload))),
		LocalBuf:  payload,
		Len:       int64(len(payload)),
		RemoteKey: i.dep.Instances[client].globalMR.Key(),
		RemoteOff: int64(replyPA),
		Imm:       encodeAnswerImm(tag, token),
	}
}

// headUpdateLoop is the background thread that returns ring head
// pointers to clients with small unsignaled write-imms. Updates that
// queued up while it worked are drained together and posted as
// per-client WR chains behind a single doorbell each, instead of one
// doorbell per credit.
func (i *Instance) headUpdateLoop(p *simtime.Proc) {
	for {
		u, ok := i.headUpd.Recv(p)
		if !ok {
			return
		}
		batch := []headUpdate{u}
		for len(batch) < headUpdBatchMax {
			v, ok := i.headUpd.TryRecv(p)
			if !ok {
				break
			}
			batch = append(batch, v)
		}
		// Group into per-client chains, preserving arrival order (order
		// matters: credits for one binding must land in sequence).
		for len(batch) > 0 {
			client := batch[0].client
			wrs := []rnic.WR{i.notifyWR(batch[0])}
			rest := batch[:0]
			for _, v := range batch[1:] {
				if v.client == client {
					wrs = append(wrs, i.notifyWR(v))
				} else {
					rest = append(rest, v)
				}
			}
			batch = rest
			_ = i.postShared(p, client, PriHigh, wrs)
		}
	}
}

// topUpRecvs keeps the pool of zero-byte IMM receive buffers posted on
// the shared QPs stocked ("LITE periodically posts IMM buffers in the
// receive queue in the background", §5.1). Each QP is tracked
// individually against a low-water mark of half the batch: one hot QP
// must never run dry behind a global count. A restock posts the refill
// as one run behind one doorbell (charged to p when the caller runs
// in process context; the boot-time call passes nil) and is counted in
// the lite.recv_restock counters so restock storms show up in
// -metrics output.
// The QPs needing a refill arrive on i.lowRecv via the per-QP
// low-water notification (rnic.SetRecvLowWater), so a restock pass is
// O(QPs below low water) — at 500 nodes a scan of every peer's QPs on
// each completion would be the dominant per-event cost.
func (i *Instance) topUpRecvs(p *simtime.Proc) {
	if len(i.lowRecv) == 0 {
		return
	}
	// Detach the dirty list before draining: posting charges doorbell
	// time, and notifications raised while this process is parked must
	// land on a fresh list, not the one being iterated.
	qs := i.lowRecv
	i.lowRecv = nil
	for _, qp := range qs {
		i.restockQP(p, qp)
	}
}

// restockQP refills one shared QP to RecvBatch if it is below the
// low-water mark.
func (i *Instance) restockQP(p *simtime.Proc, qp *rnic.QP) {
	low := i.opts.RecvBatch / 2
	if qp.RecvPosted() >= low {
		return // already stocked (duplicate notification)
	}
	// Every IMM receive is the same zero-byte buffer: post them as one run.
	n := i.opts.RecvBatch - qp.RecvPosted()
	imm := rnic.PostedRecv{MR: i.globalMR}
	if p == nil {
		_ = qp.PostRecvN(imm, n)
	} else {
		_ = i.ctx.PostRecvN(p, qp, imm, n)
	}
	reg := i.obsReg()
	reg.Add("lite.recv_restock", 1)
	reg.Add("lite.recv_restock.posted", int64(n))
}

// noteLowRecv is the rnic low-water callback: it queues the QP for the
// next restock pass. Host-side bookkeeping only — no virtual time.
func (i *Instance) noteLowRecv(qp *rnic.QP) {
	i.lowRecv = append(i.lowRecv, qp)
}

// systemWorkerLoop is a thread of the pool serving funcControl,
// funcLock and funcBarrier with the handler call.Func names. Unlike
// LT_recvRPC it copies no input and counts no serve: handlers read the
// call in place, and Drain waits only on application functions.
func (i *Instance) systemWorkerLoop(p *simtime.Proc) {
	for boot := i.boots; i.alive(boot); {
		call, err := i.awaitCall(p, i.funcs[funcControl])
		if err != nil {
			return
		}
		if !call.local {
			i.queueHeadUpdate(p, call.Src, call.Func, call.headDelta)
		}
		switch call.Func {
		case funcControl:
			i.handleControl(p, call)
		case funcLock:
			i.handleLock(p, call)
		case funcBarrier:
			i.handleBarrier(p, call)
		}
	}
}
