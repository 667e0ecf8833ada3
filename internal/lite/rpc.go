package lite

import (
	"encoding/binary"
	"fmt"
	"time"

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

// maxImmDelta is the largest head-update credit one IMM can carry.
// Deltas include wrap padding and can approach twice the ring size, so
// oversized credits are split across multiple updates.
const maxImmDelta = int64(0x7fffff) * ringAlign

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

func encodeReplyImm(token uint32) uint32 { return uint32(tagRPCRep)<<28 | token&0x0fffffff }

func encodeShedImm(token uint32) uint32 { return uint32(tagRPCShed)<<28 | token&0x0fffffff }

func encodeMaybeImm(token uint32) uint32 { return uint32(tagRPCMaybe)<<28 | token&0x0fffffff }

func encodeMovedImm(token uint32) uint32 { return uint32(tagRPCMoved)<<28 | token&0x0fffffff }

// Ring message header layout (all little endian):
//
//	[0:4]   wrap padding the sender skipped before this frame
//	[4:8]   reply token
//	[8:16]  reply physical address on the caller's node
//	[16:20] input length
//	[20:28] client sequence number (0 = unsequenced, no dedup)
//	[28:36] server boot count the logical call was first posted to
//	[36:38] prior ambiguous (timed-out) attempts of this logical call
//	[38:40] reserved
//	[40:..] input bytes
//
// The sequence number identifies a logical call across retry attempts:
// a timed-out RPC may have executed server-side with only the reply
// lost, so the server keeps a small per-(client, function) window of
// recently seen sequence numbers and answers duplicates from it
// instead of running the handler twice.
//
// The padding travels with the frame because frames of one binding do
// not arrive in ring order: its senders reserve in order but then pay
// posting costs that depend on frame size, so a small frame reserved
// later overtakes a large one. What a frame used (padding + aligned
// length) must therefore be stated by the sender, not inferred from the
// previous arrival's end — inferring it charges an overtaken frame
// almost a whole ring of phantom padding, and the credit for that lets
// the client write over frames nobody has read.
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

// binding is the client-side state of an RPC binding: a ring buffer
// LMR at the server written with write-imm. The client manages the
// tail; the server sends back head updates from a background thread
// (§5.1).
type binding struct {
	dst      int
	fn       int
	ringPA   hostmem.PAddr
	ringSize int64
	tail     int64 // monotonic bytes written (incl. wrap padding)
	head     int64 // monotonic bytes the server reported consumed
	space    simtime.Cond
	// srvBoot is the server incarnation that negotiated this ring
	// (returned by copBind; zero for boot-time bindings). First
	// attempts of retried calls are stamped with it so the server can
	// detect a retry that crossed its own restart.
	srvBoot uint64
	// dead marks a binding severed by a node crash; waiters abort.
	dead bool
	// asked marks a credit pull already posted for the current blocked
	// episode: set by the first sender that finds the ring full, cleared
	// by the next frame reserved (which is also what ends the server's
	// eagerness), so an episode costs exactly one pull however many
	// threads are parked in it.
	asked bool
}

// reset restarts the ring pointers from zero (rebind, restart); the
// server side of the ring is reset with srvRing.reset.
func (b *binding) reset() { b.tail, b.head, b.asked = 0, 0, false }

// srvRing is the server-side state of a binding.
type srvRing struct {
	client    int
	fn        int
	pa        hostmem.PAddr
	size      int64
	headLocal int64 // monotonic bytes arrived (incl. wrap padding)
	// owed is ring credit the server has generated but not yet shipped:
	// head updates are lazy (queueHeadUpdate), so at any instant the
	// client's head trails the truly consumed count by owed plus what is
	// in flight. eagerTo makes every credit ship at once while
	// headLocal < eagerTo: a blocked client pulled (tagCreditReq) with
	// its tail at eagerTo-1, and nothing it reserved after that has
	// arrived yet. A byte count, not a flag, because the pull and the
	// frames around it overtake one another on the wire.
	owed    int64
	eagerTo int64
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
	dedup     map[uint64]*dedupEntry
	dedupFIFO []uint64

	// adoptedBoots lists earlier incarnations whose dedup history this
	// ring inherited through a live migration: the boot stamps of the
	// source rings whose windows were transferred in (chains of
	// migrations accumulate lineage). A retry stamped with any of these
	// boots is covered by this window, so the restart-ambiguity check
	// must not fire for it.
	adoptedBoots []uint64
}

// reset restarts the ring's accounting from zero, matching a client
// that restarted its tail (binding.reset). Credit owed for frames of the
// old epoch is void: the client's fresh head already treats them as free.
func (r *srvRing) reset() { r.headLocal, r.owed, r.eagerTo = 0, 0, 0 }

// eager reports whether the client is (as far as the server can tell)
// still blocked behind its last pull.
func (r *srvRing) eager() bool { return r.headLocal < r.eagerTo }

// pullUnit is the granule in which a credit pull states the sender's
// tail: 8 bytes up to a 16 MB ring, coarser above, so that the IMM's 23
// value bits always span four rings — more than the tail can be ahead
// of or behind the server's arrived count when the pull lands.
func pullUnit(ringSize int64) int64 { return max(ringAlign, ringSize>>21) }

// pulled records a credit pull that states the sender's tail as units
// (mod 2^23) of pullUnit: the tail is the value congruent to it nearest
// the arrived count.
func (r *srvRing) pulled(units int64) {
	u := pullUnit(r.size)
	span := u << 23
	d := ((units*u-r.headLocal)%span + span) % span
	if d >= span/2 {
		d -= span
	}
	r.eagerTo = max(r.eagerTo, r.headLocal+d+1)
}

// bootKnown reports whether the given boot stamp's dedup history is
// held by this ring: its own incarnation, or one it adopted through
// migration.
func (r *srvRing) bootKnown(boot uint64) bool {
	if boot == r.boot {
		return true
	}
	for _, b := range r.adoptedBoots {
		if b == boot {
			return true
		}
	}
	return false
}

// dedupWindow bounds the per-(client, function) duplicate-suppression
// window. A client retries one call at a time with bounded attempts,
// so a handful of entries per binding is ample; the cap only bounds
// memory against pathological clients.
const dedupWindow = 64

// dedupEntry is one remembered call in a srvRing's window.
type dedupEntry struct {
	seq   uint64
	call  *Call // in-flight call, so a duplicate can redirect its reply
	done  bool
	reply []byte // cached output once replied
}

// dedupLookup returns the window entry for seq, if present.
func (r *srvRing) dedupLookup(seq uint64) *dedupEntry {
	if r.dedup == nil {
		return nil
	}
	return r.dedup[seq]
}

// dedupInsert records a freshly admitted call, evicting the oldest
// entry past the window cap.
func (r *srvRing) dedupInsert(e *dedupEntry) {
	if r.dedup == nil {
		r.dedup = make(map[uint64]*dedupEntry)
	}
	r.dedup[e.seq] = e
	r.dedupFIFO = append(r.dedupFIFO, e.seq)
	if len(r.dedupFIFO) > dedupWindow {
		delete(r.dedup, r.dedupFIFO[0])
		r.dedupFIFO = r.dedupFIFO[1:]
	}
}

// callMeta identifies one logical retried call across its attempts:
// the client sequence number for the server's dedup window, the count
// of prior attempts that ended ambiguously (timed out — an overload
// shed is a definitive "did not execute" and does not count), and the
// server incarnation the call was first posted to. The boot stamp is
// (re)captured on every attempt until one turns ambiguous, then
// frozen: from that point a differing server incarnation means the
// window that could have remembered the call is gone. began is when
// the logical call was first issued (the pacing exemption in rpcRetryT
// is bounded by the call's age).
type callMeta struct {
	seq     uint64
	attempt uint16
	boot    uint64
	began   simtime.Time
}

// rpcFunc is a registered RPC function. Application functions queue
// calls for LT_recvRPC; system functions carry a handler executed by
// the kernel worker pool.
type rpcFunc struct {
	id    int
	queue []*Call
	// spin parks the server threads inside their busy window, sleep
	// those past it. A call goes to the newest spinner, so the threads
	// the load does not need let their windows lapse; only when none
	// spins is the oldest sleeper woken (see dispatchCall).
	spin, sleep simtime.Cond
	handler     func(p *simtime.Proc, c *Call)
	// executing counts remote calls dequeued by a server thread whose
	// reply has not yet posted. Drain's quiescence condition is
	// len(queue) == 0 && executing == 0.
	executing int
	// waiting counts the server threads parked in LT_recvRPC on this
	// function. Fair admission reads it: a parked thread that no queued
	// call has already claimed means the call can run at once, so
	// shedding it would only idle the server (see handleRPCReq).
	waiting int
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

	// admCost is the cost the fair-admission policy charged for this
	// call, released when the reply posts; recvAt stamps when a server
	// thread dequeued it, so the reply can feed the observed service
	// time back into the policy's EWMA.
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

// Kinds of notification the background header-update thread posts.
// All three are small write-imms to the client, so they share the
// thread's per-client doorbell batching and its ordering guarantee.
const (
	updCredit = iota // ring head credit (the original head update)
	updShed          // admission control: shed notification (+ optional 8-byte Retry-After hint)
	updReply         // cached-reply replay for a deduplicated retry
	updMaybe         // dedup ambiguity: retry crossed a server restart
	updMoved         // migration: function moved, 8-byte new-home payload
)

// headUpdate is queued to the background header-update thread.
type headUpdate struct {
	kind   int
	client int
	fn     int
	delta  int64 // updCredit: bytes consumed

	// updShed / updReply / updMaybe coordinates of the attempt being
	// answered.
	token   uint32
	replyPA hostmem.PAddr
	reply   []byte // updReply: cached output; updShed: 8-byte Retry-After hint
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
	i.funcs[id] = &rpcFunc{id: id}
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
	i.funcs[funcControl] = &rpcFunc{id: funcControl, handler: i.handleControl}
	i.funcs[funcMsg] = &rpcFunc{id: funcMsg}
	i.funcs[funcLock] = &rpcFunc{id: funcLock, handler: i.handleLock}
	i.funcs[funcBarrier] = &rpcFunc{id: funcBarrier, handler: i.handleBarrier}
}

// setupBinding establishes the client-side ring for (dst, fn). The
// control binding is built directly at bootstrap by the cluster
// manager; all other bindings are negotiated over the control binding.
func (i *Instance) setupBinding(dst, fn int) error {
	key := bindKey{dst, fn}
	if _, ok := i.bindings[key]; ok {
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
	i.bindings[key] = &binding{dst: dst, fn: fn, ringPA: pa, ringSize: i.opts.RingBytes}
	remote.srvRings[bindKey{i.node.ID, fn}] = &srvRing{client: i.node.ID, fn: fn, pa: pa, size: i.opts.RingBytes}
	return nil
}

// getBinding returns the binding for (dst, fn), negotiating a new ring
// over the control channel on first use. Setup is single-flight: all
// concurrent first users share the one ring (clients of a binding
// share the tail pointer, so two independent bindings to one ring
// would clobber each other's frames).
func (i *Instance) getBinding(p *simtime.Proc, dst, fn int, pri Priority) (*binding, error) {
	key := bindKey{dst, fn}
	if b, ok := i.bindings[key]; ok {
		return b, nil
	}
	if st, ok := i.bindSetup[key]; ok {
		for !st.done {
			st.cond.Wait(p)
		}
		if st.err != nil {
			return nil, st.err
		}
		return i.bindings[key], nil
	}
	st := &bindSetup{}
	if i.bindSetup == nil {
		i.bindSetup = make(map[bindKey]*bindSetup)
	}
	i.bindSetup[key] = st
	pa, size, boot, err := i.ctlBind(p, dst, fn, pri)
	if err == nil {
		i.bindings[key] = &binding{dst: dst, fn: fn, ringPA: pa, ringSize: size, srvBoot: boot}
	}
	st.err = err
	st.done = true
	st.cond.Broadcast(p.Env())
	delete(i.bindSetup, key)
	if err != nil {
		return nil, err
	}
	return i.bindings[key], nil
}

// bindSetup tracks an in-flight binding negotiation.
type bindSetup struct {
	done bool
	err  error
	cond simtime.Cond
}

func (i *Instance) token() uint32 {
	i.nextToken = (i.nextToken + 1) & 0x0fffffff
	if i.nextToken == 0 {
		i.nextToken = 1
	}
	return i.nextToken
}

// seqID allocates a client sequence number for one logical retried
// call. It is monotonic for the life of the process and deliberately
// not reset across instance restarts, so a restarted client can never
// collide with its own stale entries in a server's dedup window.
func (i *Instance) seqID() uint64 {
	i.nextSeq++
	return i.nextSeq
}

// reserveRing claims space for a message of the given aligned size in
// the ring, waiting for head updates if the ring is full, and returns
// the ring offset to write at and the wrap padding skipped to get
// there. It aborts
// with ErrNodeDead if the binding is severed (crash or membership)
// and with ErrTimeout if no credit arrives within the RPC timeout —
// a full ring whose head updates were lost must not block forever;
// the retry layer heals it by renegotiating the binding.
//
// Head updates are lazy (the server holds back up to a quarter ring,
// see queueHeadUpdate), so a sender that finds the ring full first
// pulls: one tagCreditReq per blocked episode makes the server ship
// what it owes and keep shipping until a frame this client reserved
// after the pull arrives. What a blocked sender can rely on is
// therefore exactly what it could before — every byte the server
// consumes reaches it — at the price of one extra round trip per
// episode.
func (i *Instance) reserveRing(p *simtime.Proc, b *binding, need int64, probe bool) (off, pad int64, err error) {
	var deadline simtime.Time
	if i.opts.RPCTimeout > 0 {
		deadline = p.Now() + i.opts.RPCTimeout
	}
	for {
		if i.stopped || b.dead || (!probe && i.deadView[b.dst]) {
			return 0, 0, ErrNodeDead
		}
		// Pad to the ring start if the message would wrap.
		pad = 0
		if off := b.tail % b.ringSize; off+need > b.ringSize {
			pad = b.ringSize - off
		}
		// An empty ring (every byte posted has been credited back) takes
		// any frame that fits the ring at all: the wrap padding is then
		// bookkeeping over bytes nobody will read, and holding it against
		// the window would block a frame longer than both the run before
		// and the run after the tail forever, not until the next credit.
		if b.tail+pad+need-b.head <= b.ringSize || (b.tail == b.head && need <= b.ringSize) {
			b.tail += pad
			off = b.tail % b.ringSize
			b.tail += need
			if b.asked {
				// This frame turns the server lazy again: senders still
				// parked must re-check and open a new episode.
				b.asked = false
				b.space.Broadcast(i.cls.Env)
			}
			return off, pad, nil
		}
		if !b.asked {
			b.asked = true
			i.pullCredit(p, b)
			continue // posting yielded; credit may already be here
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

// pullCredit posts the credit pull for b: a zero-length write-imm the
// server's poller answers by shipping the ring's owed credit. It states
// the tail (rounded up to the pull granule, which can only make the
// server eager a few bytes longer) so the server can tell frames
// reserved before the pull from frames reserved after it, whatever
// order they arrive in. Like the frames it unblocks it is never polled;
// a lost pull ends in the sender's reserveRing timeout.
func (i *Instance) pullCredit(p *simtime.Proc, b *binding) {
	i.obsReg().Add("lite.ring.credit_pull", 1)
	u := pullUnit(b.ringSize)
	units := (b.tail + u - 1) / u
	_ = i.postShared(p, b.dst, PriHigh, []rnic.WR{{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Inline:    i.wantInline(0),
		RemoteKey: i.dep.Instances[b.dst].globalMR.Key(),
		Imm:       encodeImm(tagCreditReq, b.fn, units%(1<<23)*ringAlign),
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

// reapQP frees the send-queue slots of every in-flight signaled batch
// whose completion has already arrived, oldest first, without
// blocking. Stops at the first batch still outstanding.
func (i *Instance) reapQP(p *simtime.Proc, sig *qpSigState) {
	for len(sig.inflight) > 0 {
		b := sig.inflight[0]
		if _, ok := i.sendDisp.TryClaim(p, b.wrid); !ok {
			return
		}
		sig.inflight = sig.inflight[1:]
		for _, rel := range b.releases {
			rel()
		}
	}
}

// acquireShared selects a shared QP to dst (round-robin within the
// QoS range) and takes one send-queue slot on it, reaping this QP's
// arrived completions first. When the queue is full the caller waits
// on this QP's own oldest signaled completion — never another QP's —
// so a destination that is timing out cannot starve posts to healthy
// ones. Exactly one waiter reaps at a time; contenders park on the
// QP's cond.
func (i *Instance) acquireShared(p *simtime.Proc, dst int, pri Priority) (*rnic.QP, int, *qpSigState, func()) {
	lo, hi := i.qos.qpRange(pri, len(i.qps[dst]))
	k := lo + i.nextQP[dst]%(hi-lo)
	i.nextQP[dst]++
	qp := i.qps[dst][k]
	slot := i.qpSlots[dst][k]
	sig := i.qpSig[dst][k]
	env := i.cls.Env
	for {
		i.reapQP(p, sig)
		if slot.TryAcquire(p) {
			return qp, k, sig, func() { slot.Release(env) }
		}
		if sig.reaping {
			sig.cond.Wait(p)
			continue
		}
		if len(sig.inflight) == 0 {
			// The held slots belong to posts still in flight (their
			// holders file or release them when their PostSendList
			// returns); just wait for a permit.
			slot.Acquire(p)
			return qp, k, sig, func() { slot.Release(env) }
		}
		i.reapOldest(p, sig)
	}
}

// reapOldest waits for the QP's oldest in-flight signaled batch and
// frees its send-queue slots. The caller has checked that there is one
// and that nobody else is reaping.
func (i *Instance) reapOldest(p *simtime.Proc, sig *qpSigState) {
	sig.reaping = true
	b := sig.inflight[0]
	sig.inflight = sig.inflight[1:]
	i.sendDisp.WaitQuiet(p, b.wrid)
	for _, rel := range b.releases {
		rel()
	}
	sig.reaping = false
	sig.cond.Broadcast(i.cls.Env)
}

// postShared posts a chain of work requests to dst over one shared QP
// behind a single doorbell, applying selective completion signaling:
// posts are normally unsignaled (no CQE), their send-queue slots held
// until every signalEvery-th post, whose last WR is signaled; the
// accumulated slot releases are then filed under that completion and
// freed when a later poster reaps it — lazy WQE reclaim, bounded by
// qpDepth: a sender is never more than one signaled completion away
// from free slots.
func (i *Instance) postShared(p *simtime.Proc, dst int, pri Priority, wrs []rnic.WR) error {
	qp, k, sig, release := i.acquireShared(p, dst, pri)
	// The signaling decision must be made AND published in sig.count
	// before PostSendList parks to pay the posting cost. Concurrent
	// posters on the same QP would otherwise all read the
	// pre-increment count, each decide "not my turn to signal", and
	// fill the entire send queue with unsignaled WQEs — leaving no
	// completion to ever reclaim the slots and deadlocking every
	// sender to this destination. (Closed-loop clients never hit this;
	// an open-loop burst does.)
	signaled := sig.count+len(wrs) >= signalEvery
	if signaled {
		last := &wrs[len(wrs)-1]
		last.Signaled = true
		last.WRID = i.wrID()
		sig.count = 0
	} else {
		sig.count += len(wrs)
	}
	err := i.ctx.PostSendList(p, qp, wrs)
	if err != nil {
		release()
		return err
	}
	sig.pending = append(sig.pending, release)
	if signaled {
		// The batch takes every release currently deferred on this QP.
		// Releases of posts that raced in after this WR was decided may
		// ride along and free their slot on this completion — a slightly
		// early reclaim of the simulated slot budget, never a leak.
		sig.inflight = append(sig.inflight, reclaimBatch{wrid: wrs[len(wrs)-1].WRID, releases: sig.pending})
		sig.pending = nil
	}
	// Lazy reclaim counts on a later poster to reap. Senders that found
	// the queue full while its holders were still posting are parked on
	// the slot semaphore, not in the reap loop, so when a burst is not
	// followed by another post nobody would ever free their slots: a
	// poster that leaves the queue exhausted reaps before it goes.
	for slot := i.qpSlots[dst][k]; slot.Available() == 0 && len(sig.inflight) > 0 && !sig.reaping; {
		i.reapOldest(p, sig)
	}
	return nil
}

// postToRing writes a framed message into the binding's ring at the
// server with one unsignaled write-imm (§5.1: the sending state is
// never polled; reply or timeout detects failure). Frames that fit
// Params.MaxInline travel inline in the WQE and skip the payload DMA
// stage.
func (i *Instance) postToRing(p *simtime.Proc, b *binding, fn int, token uint32, replyPA hostmem.PAddr, input []byte, pri Priority, probe bool, meta *callMeta, ten uint16) error {
	var seq, boot uint64
	var attempt uint16
	if meta != nil {
		if meta.attempt == 0 {
			// Until an attempt ends ambiguously the logical call is
			// (re)stamped with the current server incarnation; after
			// that the stamp freezes so a restart in between is
			// detectable server-side.
			meta.boot = b.srvBoot
		}
		seq, boot, attempt = meta.seq, meta.boot, meta.attempt
	}
	need := int64(ringHdr + len(input))
	aligned := (need + ringAlign - 1) &^ (ringAlign - 1)
	off, pad, err := i.reserveRing(p, b, aligned, probe)
	if err != nil {
		return err
	}

	msg := i.getFrame(need)
	binary.LittleEndian.PutUint32(msg[0:], uint32(pad))
	binary.LittleEndian.PutUint32(msg[4:], token)
	binary.LittleEndian.PutUint64(msg[8:], uint64(replyPA))
	binary.LittleEndian.PutUint32(msg[16:], uint32(len(input)))
	binary.LittleEndian.PutUint64(msg[20:], seq)
	binary.LittleEndian.PutUint64(msg[28:], boot)
	binary.LittleEndian.PutUint16(msg[36:], attempt)
	binary.LittleEndian.PutUint16(msg[38:], ten)
	copy(msg[ringHdr:], input)

	i.qos.throttle(p, pri, need)
	err = i.postShared(p, b.dst, pri, []rnic.WR{{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Signaled:  false,
		Inline:    i.wantInline(need),
		LocalBuf:  msg,
		Len:       need,
		RemoteKey: i.dep.Instances[b.dst].globalMR.Key(),
		RemoteOff: int64(b.ringPA) + off,
		Imm:       encodeImm(tagRPCReq, fn, off),
		Trace:     procSpan(p),
	}})
	// The NIC snapshotted the payload synchronously inside the post, so
	// the frame can be recycled immediately.
	i.putFrame(msg)
	return err
}

// rpcInternal implements LT_RPC: write-imm the input into the server's
// ring, then wait (adaptively) for the reply write-imm that lands
// directly in this node's response buffer.
func (i *Instance) rpcInternal(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, pri Priority) ([]byte, error) {
	return i.rpcInternalT(p, dst, fn, input, maxReply, pri, i.opts.RPCTimeout)
}

// rpcInternalT is rpcInternal with an explicit timeout; a zero timeout
// means wait forever (used by locks and barriers, whose replies are
// intentionally withheld until the event occurs).
func (i *Instance) rpcInternalT(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, pri Priority, timeout simtime.Time) ([]byte, error) {
	return i.rpcInternalFull(p, dst, fn, input, maxReply, pri, timeout, false, nil, caller{})
}

// rpcInternalProbe is rpcInternalT with the probe flag exposed:
// keepalives may target declared-dead nodes, since a successful probe
// is exactly what revives one.
func (i *Instance) rpcInternalProbe(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, pri Priority, timeout simtime.Time, probe bool) ([]byte, error) {
	return i.rpcInternalFull(p, dst, fn, input, maxReply, pri, timeout, probe, nil, caller{})
}

// rpcInternalFull is the complete LT_RPC entry point. meta, when
// non-nil, identifies this logical call across retry attempts (client
// sequence number, ambiguous-attempt count, server boot stamp); the
// server's dedup window uses it to suppress duplicate execution after
// a lost reply and to detect retries that crossed its restart. who is
// the calling client: its tenant ID travels in the ring header so the
// server can apply tenant-weighted admission, and its level decides who
// polls for the reply (awaitReply).
func (i *Instance) rpcInternalFull(p *simtime.Proc, dst, fn int, input []byte, maxReply int64, pri Priority, timeout simtime.Time, probe bool, meta *callMeta, who caller) ([]byte, error) {
	reg := i.obsReg()
	parent := procSpan(p)
	t0 := p.Now()
	p.Work(i.cfg.LITECheck)
	reg.AddSpan(t0, p.Now(), "lite.check", parent)
	if i.stopped {
		return nil, ErrNodeDead
	}
	if dst == i.node.ID {
		return i.rpcLocal(p, fn, input, timeout, who.tenant)
	}
	b, err := i.getBinding(p, dst, fn, pri)
	if err != nil {
		return nil, err
	}
	token := i.token()
	respPA := i.scratchAlloc(maxReply)
	pc := &pendingCall{respPA: respPA, dst: dst, probe: probe}
	i.pending[token] = pc

	post := reg.StartSpan(p.Now(), "lite.rpc.post", parent)
	err = i.postToRing(p, b, fn, token, respPA, input, pri, probe, meta, who.tenant)
	post.Done(p.Now())
	if err != nil {
		delete(i.pending, token)
		return nil, err
	}
	var deadline simtime.Time
	if timeout > 0 {
		deadline = p.Now() + timeout
	}
	wait := reg.StartSpan(p.Now(), "lite.rpc.wait", parent)
	waited := i.awaitReply(p, pc, deadline, who.user)
	wait.Done(p.Now())
	if !waited {
		// The server may yet deliver a late reply write-imm into
		// respPA. Keep the pending entry and quarantine the buffer so
		// the allocator cannot hand it out on ring wraparound while
		// that write is in flight; the quarantine lifts when the reply
		// lands or the membership epoch advances past this call.
		pc.abandoned = true
		i.scratch.quarantine(respPA, maxReply, token, i.epoch)
		return nil, ErrTimeout
	}
	if pc.err != nil {
		return nil, pc.err
	}
	if pc.respLen > maxReply {
		pc.respLen = maxReply
	}
	// The NIC wrote the reply directly into this buffer (zero copy at
	// the client side); materialize it for the caller.
	out := make([]byte, pc.respLen)
	if err := i.node.Mem.Read(respPA, out); err != nil {
		return nil, err
	}
	return out, nil
}

// awaitReply is LT_RPC's adaptive wait for the reply write-imm. A
// kernel-level caller spends its busy window on a core inside the
// kernel with nothing to do but look for its completion, so it is
// counted in spinners and — while the shared poller sleeps — polls the
// receive CQ itself (pollForCaller): the reply is demultiplexed at
// arrival + pollerHandleCost without waking the poller. A user-level
// caller left the kernel at post time and spins on the §5.2 completion
// page in user space; it cannot touch the CQ and keeps needing the
// poller.
func (i *Instance) awaitReply(p *simtime.Proc, pc *pendingCall, deadline simtime.Time, user bool) bool {
	ready := func() bool { return pc.done }
	if user {
		return i.adaptiveWait(p, &pc.cond, ready, deadline)
	}
	i.spinners++
	i.spinWait(p, &pc.cond, ready, deadline)
	i.spinners--
	return i.sleepWait(p, &pc.cond, ready, deadline)
}

// rpcLocal dispatches an RPC whose server is this node without
// touching the network.
func (i *Instance) rpcLocal(p *simtime.Proc, fn int, input []byte, timeout simtime.Time, ten uint16) ([]byte, error) {
	if i.stopped {
		return nil, ErrNodeDead
	}
	f, ok := i.funcs[fn]
	if !ok {
		return nil, ErrNoSuchRPC
	}
	pc := &pendingCall{}
	call := &Call{Func: fn, Src: i.node.ID, Tenant: ten, Input: append([]byte(nil), input...), local: true, pend: pc}
	i.memcpyCost(p, int64(len(input)))
	i.dispatchCall(f, call)
	var deadline simtime.Time
	if timeout > 0 {
		deadline = p.Now() + timeout
	}
	if !i.adaptiveWait(p, &pc.cond, func() bool { return pc.done }, deadline) {
		return nil, ErrTimeout
	}
	if pc.err != nil {
		return nil, pc.err
	}
	return call.localReply, nil
}

func (i *Instance) dispatchCall(f *rpcFunc, call *Call) {
	f.queue = append(f.queue, call)
	if f.handler != nil {
		i.sysQueue = append(i.sysQueue, f)
		i.sysCond.Signal(i.cls.Env)
	} else if !f.spin.SignalNewest(i.cls.Env) {
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
	// The thread counts as parked from here to the instant it dequeues
	// a call or gives up: one increment, one decrement, whatever the
	// exit, so the count can neither leak nor survive its thread.
	f.waiting++
	call, err := i.awaitCall(p, f)
	f.waiting--
	if err != nil {
		return nil, err
	}
	i.memcpyCost(p, int64(len(call.Input)))
	// Stamp the dequeue instant: reply time minus this is the observed
	// handler service time the fair-admission EWMA learns from.
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
// sleeping on f.sleep.
func (i *Instance) awaitCall(p *simtime.Proc, f *rpcFunc) (*Call, error) {
	ready := func() bool { return i.stopped || len(f.queue) > 0 }
	for {
		i.spinWait(p, &f.spin, ready, 0)
		i.sleepWait(p, &f.sleep, ready, 0)
		if i.stopped {
			return nil, ErrNodeDead
		}
		if len(f.queue) == 0 {
			continue // another server thread took it during our wakeup
		}
		call := f.queue[0]
		f.queue = f.queue[1:]
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
	// bookkeeping — no virtual time moves, so a depth-only or
	// admission-free timeline is unperturbed.
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
	err := i.postShared(p, c.Src, pri, []rnic.WR{{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Signaled:  false,
		Inline:    i.wantInline(int64(len(output))),
		LocalBuf:  output,
		Len:       int64(len(output)),
		RemoteKey: i.dep.Instances[c.Src].globalMR.Key(),
		RemoteOff: int64(c.replyPA),
		Imm:       encodeReplyImm(c.token),
		Trace:     parent,
	}})
	post.Done(p.Now())
	return err
}

// sendInternal implements LT_send: a one-way message into the
// destination's message queue, delivered through the funcMsg ring.
func (i *Instance) sendInternal(p *simtime.Proc, dst int, data []byte, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	if dst == i.node.ID {
		i.memcpyCost(p, int64(len(data)))
		i.msgQueue = append(i.msgQueue, Message{Src: i.node.ID, Data: append([]byte(nil), data...)})
		i.msgCond.Signal(i.cls.Env)
		return nil
	}
	b, err := i.getBinding(p, dst, funcMsg, pri)
	if err != nil {
		return err
	}
	return i.postToRing(p, b, funcMsg, 0, 0, data, pri, false, nil, 0)
}

// recvInternal implements the receive side of LT_send.
func (i *Instance) recvInternal(p *simtime.Proc) (Message, error) {
	for {
		if !i.adaptiveWait(p, &i.msgCond, func() bool { return i.stopped || len(i.msgQueue) > 0 }, 0) {
			return Message{}, ErrTimeout
		}
		if i.stopped {
			return Message{}, ErrNodeDead
		}
		if len(i.msgQueue) == 0 {
			continue // another receiver took it during our wakeup
		}
		m := i.msgQueue[0]
		i.msgQueue = i.msgQueue[1:]
		i.memcpyCost(p, int64(len(m.Data)))
		return m, nil
	}
}

// tryRecvInternal returns a queued message without blocking.
func (i *Instance) tryRecvInternal(p *simtime.Proc) (Message, bool) {
	if len(i.msgQueue) == 0 {
		return Message{}, false
	}
	m := i.msgQueue[0]
	i.msgQueue = i.msgQueue[1:]
	i.memcpyCost(p, int64(len(m.Data)))
	return m, true
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
// user threads so an idle node does not burn a core forever.
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
	woke := false // the poller has just slept and handled nothing since
	for !i.stopped {
		if cqe, ok := i.recvCQ.TryPoll(); ok {
			p.Work(pollerHandleCost)
			i.PollerCPU += pollerHandleCost
			pings := i.handleRecvCQE(p, cqe)
			for !i.stopped {
				cqe, ok := i.recvCQ.TryPoll()
				if !ok {
					break
				}
				p.Work(pollerBatchCost)
				i.PollerCPU += pollerBatchCost
				i.obsReg().Add("lite.poller.coalesced", 1)
				pings = i.handleRecvCQE(p, cqe) && pings
			}
			if woke && pings && !i.stopped {
				i.pollerSleep(p)
				continue
			}
			woke = false
			continue
		}
		woke = false
		// Busy window.
		t0 := p.Now()
		if i.recvCQ.WaitTimeout(p, i.cfg.AdaptivePollWindow) {
			d := p.Now() - t0
			p.Charge(d)
			i.PollerCPU += d
			continue
		}
		d := p.Now() - t0
		p.Charge(d)
		i.PollerCPU += d
		i.pollerSleep(p)
		woke = true
	}
}

// pollerSleep parks the poller until the next completion nobody else
// polls for, then charges its wakeup.
func (i *Instance) pollerSleep(p *simtime.Proc) {
	for {
		i.recvCQ.Wait(p)
		if !i.pollForCaller(p) {
			break
		}
	}
	p.Work(i.cfg.WakeupLatency)
	i.PollerCPU += i.cfg.WakeupLatency
}

// pollForCaller runs when a completion arrives with the shared poller
// asleep: if a kernel-level caller is spinning on its reply
// (spinners > 0) the queued completions are demultiplexed on that
// caller's behalf — at the poller's per-CQE cost but on the caller's
// time, which its busy wait is already charging, so this thread neither
// pays a wakeup nor burns a busy window afterwards. It reports whether
// the poller may go back to sleep; false means the completion at the
// head of the CQ (or the wake itself) is the poller's to handle at full
// price.
//
// The body runs on the poller's proc only because CQ.Push signals the
// oldest waiter, which is always the sleeping poller; nothing here is
// charged to it.
func (i *Instance) pollForCaller(p *simtime.Proc) bool {
	polled, cost := false, pollerHandleCost
	for i.spinners > 0 && !i.stopped {
		cqe, ok := i.recvCQ.TryPoll()
		if !ok {
			break
		}
		p.Sleep(cost)
		polled, cost = true, pollerBatchCost
		i.obsReg().Add("lite.poller.caller_polled", 1)
		i.handleRecvCQE(p, cqe)
	}
	return polled && !i.stopped && i.recvCQ.Len() == 0
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
	case tagRPCRep:
		token := cqe.Imm & 0x0fffffff
		if pc, ok := i.pending[token]; ok {
			delete(i.pending, token)
			if pc.abandoned {
				// Late reply for a call whose waiter already timed
				// out: the write has landed, so the quarantined reply
				// buffer is safe to reuse.
				i.scratch.release(token)
				return
			}
			pc.respLen = cqe.Len
			pc.done = true
			pc.cond.Broadcast(i.cls.Env)
		}
	case tagHeadUpd:
		if b, ok := i.bindings[bindKey{cqe.SrcNode, fn}]; ok {
			b.head += v
			b.space.Broadcast(i.cls.Env)
		}
	case tagCreditReq:
		if ring, ok := i.srvRings[bindKey{cqe.SrcNode, fn}]; ok {
			ring.pulled(v / ringAlign)
			i.shipCredit(p, ring)
		}
	case tagRPCShed:
		token := cqe.Imm & 0x0fffffff
		if pc, ok := i.pending[token]; ok {
			delete(i.pending, token)
			if pc.abandoned {
				// The shed notice raced with the waiter's timeout; no
				// reply will ever land, so free the quarantined buffer.
				i.scratch.release(token)
				return
			}
			pc.err = ErrOverloaded
			if cqe.Len >= 8 {
				// The fair policy shipped a Retry-After hint in the
				// reply buffer; surface it through the typed error so
				// the retry layer can honor it.
				var buf [8]byte
				if i.node.Mem.Read(pc.respPA, buf[:]) == nil {
					if h := simtime.Time(binary.LittleEndian.Uint64(buf[:])); h > 0 {
						pc.err = &OverloadError{RetryAfter: h}
					}
				}
			}
			pc.done = true
			pc.cond.Broadcast(i.cls.Env)
		}
	case tagRPCMaybe:
		token := cqe.Imm & 0x0fffffff
		if pc, ok := i.pending[token]; ok {
			delete(i.pending, token)
			if pc.abandoned {
				// The ambiguity notice raced with the waiter's timeout;
				// no reply will ever land, so free the quarantined
				// buffer.
				i.scratch.release(token)
				return
			}
			i.obsReg().Add("lite.rpc.maybe_executed", 1)
			pc.err = ErrMaybeExecuted
			pc.done = true
			pc.cond.Broadcast(i.cls.Env)
		}
	case tagRPCMoved:
		token := cqe.Imm & 0x0fffffff
		if pc, ok := i.pending[token]; ok {
			delete(i.pending, token)
			if pc.abandoned {
				// The moved notice raced with the waiter's timeout; no
				// reply will ever land, so free the quarantined buffer.
				i.scratch.release(token)
				return
			}
			i.obsReg().Add("lite.rpc.moved", 1)
			pc.err = ErrMoved
			if cqe.Len >= 8 {
				// The fence shipped the new home node in the reply
				// buffer; surface it through the typed error so the
				// retry layer can re-route without consuming an attempt.
				var buf [8]byte
				if i.node.Mem.Read(pc.respPA, buf[:]) == nil {
					pc.err = &MovedError{To: int(binary.LittleEndian.Uint64(buf[:]))}
				}
			}
			pc.done = true
			pc.cond.Broadcast(i.cls.Env)
		}
	}
	return false
}

// handleRPCReq parses a request frame out of the server-side ring and
// routes it to the function's queue (applications) or the system
// worker pool (LITE-internal functions). ping reports a keepalive,
// which it answers itself.
func (i *Instance) handleRPCReq(p *simtime.Proc, src, fn int, off int64) (ping bool) {
	ring, ok := i.srvRings[bindKey{src, fn}]
	if !ok {
		return
	}
	var hdr [ringHdr]byte
	if err := i.node.Mem.Read(ring.pa+hostmem.PAddr(off), hdr[:]); err != nil {
		return
	}
	pad := int64(binary.LittleEndian.Uint32(hdr[0:]))
	token := binary.LittleEndian.Uint32(hdr[4:])
	replyPA := hostmem.PAddr(binary.LittleEndian.Uint64(hdr[8:]))
	inLen := int64(binary.LittleEndian.Uint32(hdr[16:]))
	seq := binary.LittleEndian.Uint64(hdr[20:])
	boot := binary.LittleEndian.Uint64(hdr[28:])
	attempt := binary.LittleEndian.Uint16(hdr[36:])
	ten := binary.LittleEndian.Uint16(hdr[38:])
	if off+ringHdr+inLen > ring.size || pad >= ring.size {
		return
	}
	input := make([]byte, inLen)
	_ = i.node.Mem.Read(ring.pa+hostmem.PAddr(off+ringHdr), input)

	// Ring accounting: the wrap padding the client says it skipped
	// before this frame, then the frame itself. Frames arrive out of
	// ring order (see the header layout), so only the sum is meaningful.
	aligned := (ringHdr + inLen + ringAlign - 1) &^ (ringAlign - 1)
	ring.headLocal += pad + aligned
	delta := pad + aligned

	if fn == funcControl && inLen == 1 && input[0] == copPing {
		// A keepalive is answered here, by the poller: no system worker
		// wakes to build nine bytes, and pollerLoop opens no busy window
		// after it.
		i.obsReg().Add("lite.heartbeat.answered", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		i.answerPing(p, src, token, replyPA)
		return true
	}
	call := &Call{Func: fn, Src: src, Tenant: ten, Input: input, token: token, replyPA: replyPA, headDelta: delta}
	if fn == funcMsg {
		i.msgQueue = append(i.msgQueue, Message{Src: src, Data: input})
		i.msgCond.Signal(i.cls.Env)
		// Messages are consumed immediately; credit the ring now.
		i.queueHeadUpdate(p, src, fn, delta)
		return
	}
	if to, ok := i.moved[migKey{i.node.ID, fn}]; ok {
		// This function migrated away from this node. The ring stays
		// alive exactly for this moment: stale clients (and retries of
		// calls whose replies were lost) are answered with the typed
		// moved notice carrying the new home, never silently dropped.
		// Checked before the dedup lookup — the windows transferred with
		// the migration, so any replay must happen at the new home.
		i.obsReg().Add("lite.rpc.moved_bounce", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		i.queueNotify(p, headUpdate{kind: updMoved, client: src, fn: fn, token: token, replyPA: replyPA, reply: encodeMovedTo(to)})
		return
	}
	f, ok := i.funcs[fn]
	if !ok {
		// Unknown function: reclaim the ring space; the client times out.
		i.queueHeadUpdate(p, src, fn, delta)
		return
	}
	if seq != 0 {
		if e := ring.dedupLookup(seq); e != nil {
			// Retry of a call already seen from this (client, fn). The
			// frame still consumed ring space, so always credit it; then
			// either replay the cached reply or redirect the in-flight
			// call's eventual reply to this newest attempt's coordinates.
			i.queueHeadUpdate(p, src, fn, delta)
			if e.done {
				i.obsReg().Add("lite.rpc.dedup_replay", 1)
				i.queueNotify(p, headUpdate{kind: updReply, client: src, fn: fn, token: token, replyPA: replyPA, reply: e.reply})
			} else {
				i.obsReg().Add("lite.rpc.dedup_redirect", 1)
				e.call.token = token
				e.call.replyPA = replyPA
			}
			return
		}
		if attempt > 0 && !ring.bootKnown(boot) {
			// A retry of a timed-out call whose first attempt targeted
			// an earlier incarnation of this server: the dedup window
			// that could have remembered it died with that
			// incarnation's rings, so whether it executed is
			// unknowable here. Answer with the typed ambiguity notice
			// instead of silently running the handler a second time.
			i.obsReg().Add("lite.rpc.dedup_ambiguous", 1)
			i.queueHeadUpdate(p, src, fn, delta)
			i.queueNotify(p, headUpdate{kind: updMaybe, client: src, fn: fn, token: token})
			return
		}
	}
	if ms := i.migrating[fn]; ms != nil && ms.fenced {
		// The function is mid-migration and fenced: hold the call
		// instead of executing it. On commit every held call is answered
		// with the moved notice (the client re-routes, zero failures);
		// on abort they dispatch normally. The dedup entry is inserted
		// NOW so a retry arriving while the call is held redirects into
		// it rather than being held (and later dispatched) a second
		// time. The ring credit was already paid above, so the delta is
		// zeroed to keep LT_recvRPC from crediting it again on abort.
		i.obsReg().Add("lite.migrate.held", 1)
		i.queueHeadUpdate(p, src, fn, delta)
		call.headDelta = 0
		if seq != 0 {
			e := &dedupEntry{seq: seq, call: call}
			call.ded = e
			ring.dedupInsert(e)
		}
		ms.held = append(ms.held, call)
		return
	}
	if fn >= FirstUserFunc {
		reg := i.obsReg()
		reg.Observe("lite.rpc.queue_depth", simtime.Time(len(f.queue)))
		if hw := i.opts.AdmissionHighWater; hw > 0 {
			p.Work(i.cfg.AdmissionCheck)
			if i.opts.FairAdmission {
				p.Work(i.cfg.FairAdmissionCheck)
				// Work conservation: a server thread is parked that no
				// queued call has already claimed, so this call would run
				// at once. Shares and banks arbitrate between tenants only
				// when every worker is busy; either policy admits on idle
				// as long as the budget has room.
				idle := len(f.queue) < f.waiting
				a := i.admFor(fn)
				floored := a.idleAdmits
				var cost int64
				var hint simtime.Time
				var ok bool
				if ten != 0 {
					// A tenant-tagged request: weighted-tenant admission,
					// with the extra credential/credit bookkeeping charged.
					p.Work(i.cfg.TenantCheck)
					cost, hint, ok = a.admitTenant(ten, i.dep.tenantWeight(ten), inLen, hw, len(f.queue), idle)
					i.tenantCount(ten, tenObsAdmit, ok)
				} else {
					cost, hint, ok = a.admit(src, inLen, hw, len(f.queue), idle)
				}
				if a.idleAdmits != floored {
					reg.Add("lite.adm.idle_admit", 1)
				}
				if !ok {
					// Shed the over-share client: credit the frame and
					// notify fast, shipping the Retry-After estimate in
					// the call's reply buffer (every reply buffer owns
					// at least a cache line, so the 8-byte hint always
					// has a landing zone).
					reg.Add("lite.rpc.shed", 1)
					reg.Add("lite.rpc.shed_fair", 1)
					i.queueHeadUpdate(p, src, fn, delta)
					u := headUpdate{kind: updShed, client: src, fn: fn, token: token}
					if hint > 0 {
						buf := make([]byte, 8)
						binary.LittleEndian.PutUint64(buf, uint64(hint))
						u.reply = buf
						u.replyPA = replyPA
					}
					i.queueNotify(p, u)
					return
				}
				call.admCost = cost
			} else if len(f.queue) >= hw {
				// Shed: credit the frame and tell the client fast with a
				// zero-length write-imm, instead of letting it burn a
				// full RPC timeout against a queue that cannot drain.
				reg.Add("lite.rpc.shed", 1)
				i.queueHeadUpdate(p, src, fn, delta)
				i.queueNotify(p, headUpdate{kind: updShed, client: src, fn: fn, token: token})
				return
			}
		}
	}
	if seq != 0 {
		e := &dedupEntry{seq: seq, call: call}
		call.ded = e
		ring.dedupInsert(e)
	}
	i.dispatchCall(f, call)
	// The paper adjusts the header at LT_recvRPC time and ships it from
	// a background thread; the delta rides on the call until consumed.
	return false
}

// creditShare is the fraction of a ring the server may hold back as
// unshipped credit: a head update goes out once owed reaches
// size/creditShare, so a client always sees at least three quarters of
// the truly free ring and a small-frame workload pays one head update
// per quarter ring instead of one per call.
const creditShare = 4

// queueHeadUpdate returns delta bytes of consumed ring space to the
// client — lazily: the credit accumulates in the ring's owed count and
// ships from the background header-update thread (step f in Figure 9)
// only once it is worth a work request, or at once while the client is
// known to be blocked (srvRing.eager). No timer flushes the remainder;
// a sender that needs it asks (reserveRing's pull).
func (i *Instance) queueHeadUpdate(p *simtime.Proc, client, fn int, delta int64) {
	ring, ok := i.srvRings[bindKey{client, fn}]
	if !ok {
		return // torn down with its client; nobody is left to credit
	}
	ring.owed += delta
	if ring.eager() || ring.owed >= ring.size/creditShare {
		i.shipCredit(p, ring)
	}
}

// shipCredit queues everything the ring owes as head updates. Credits
// larger than the IMM delta encoding (possible with wrap padding on a
// near-maximal ring) are split across several updates.
func (i *Instance) shipCredit(p *simtime.Proc, ring *srvRing) {
	for ring.owed > 0 {
		d := min(ring.owed, maxImmDelta)
		ring.owed -= d
		i.obsReg().Add("lite.ring.credit_wr", 1)
		i.queueNotify(p, headUpdate{kind: updCredit, client: ring.client, fn: ring.fn, delta: d})
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

// answerPing replies to a keepalive with [cstOK][membership epoch],
// through the header-update thread like a replayed cached reply. That
// thread serves every peer in turn and can sit in a send-queue reap
// toward a crashed one for a whole RCTimeout, far longer than a prober
// waits; so while it is busy the reply gets a one-shot poster of its
// own instead of queueing behind other peers' notifications.
func (i *Instance) answerPing(p *simtime.Proc, src int, token uint32, replyPA hostmem.PAddr) {
	reply := make([]byte, 9)
	reply[0] = cstOK
	binary.LittleEndian.PutUint64(reply[1:], i.epoch)
	u := headUpdate{kind: updReply, client: src, token: token, replyPA: replyPA, reply: reply}
	if !i.notifying {
		i.queueNotify(p, u)
		return
	}
	i.cls.GoDaemonOn(i.node.ID, "lite-ping-reply", func(q *simtime.Proc) {
		if !i.stopped {
			_ = i.postShared(q, src, PriHigh, []rnic.WR{i.notifyWR(u)})
		}
	})
}

// headUpdBatchMax bounds how many queued head updates the background
// thread drains into one doorbell-batched burst.
const headUpdBatchMax = 16

// notifyWR builds the write-imm for one queued notification: a
// zero-length ring credit, a shed notice (zero-length, or carrying an
// 8-byte Retry-After hint under the fair policy), a zero-length
// restart-ambiguity notice, or a cached reply replayed into the
// retrying attempt's response buffer.
func (i *Instance) notifyWR(u headUpdate) rnic.WR {
	wr := rnic.WR{
		Kind:      rnic.OpWriteImm,
		WRID:      i.wrID(),
		Signaled:  false,
		Inline:    i.wantInline(0),
		Len:       0,
		RemoteKey: i.dep.Instances[u.client].globalMR.Key(),
		RemoteOff: 0,
	}
	switch u.kind {
	case updShed:
		wr.Imm = encodeShedImm(u.token)
		if len(u.reply) > 0 {
			// Fair-admission shed with a Retry-After hint: the 8 bytes
			// land in the call's reply buffer ahead of the IMM.
			wr.Inline = i.wantInline(int64(len(u.reply)))
			wr.LocalBuf = u.reply
			wr.Len = int64(len(u.reply))
			wr.RemoteOff = int64(u.replyPA)
		}
	case updMaybe:
		wr.Imm = encodeMaybeImm(u.token)
	case updMoved:
		// Migration fence notice: the 8-byte new-home payload lands in
		// the call's reply buffer ahead of the IMM (every reply buffer
		// owns at least a cache line, so it always has a landing zone).
		wr.Imm = encodeMovedImm(u.token)
		wr.Inline = i.wantInline(int64(len(u.reply)))
		wr.LocalBuf = u.reply
		wr.Len = int64(len(u.reply))
		wr.RemoteOff = int64(u.replyPA)
	case updReply:
		wr.Inline = i.wantInline(int64(len(u.reply)))
		wr.LocalBuf = u.reply
		wr.Len = int64(len(u.reply))
		wr.RemoteOff = int64(u.replyPA)
		wr.Imm = encodeReplyImm(u.token)
	default:
		wr.Imm = encodeImm(tagHeadUpd, u.fn, u.delta)
	}
	return wr
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
		i.notifying = true
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
		i.notifying = false
	}
}

// topUpRecvs keeps the pool of zero-byte IMM receive buffers posted on
// the shared QPs stocked ("LITE periodically posts IMM buffers in the
// receive queue in the background", §5.1). Each QP is tracked
// individually against a low-water mark of half the batch: one hot QP
// must never run dry behind a global count. A restock posts the whole
// refill list behind one doorbell (charged to p when the caller runs
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
	if len(i.recvTmpl) < i.opts.RecvBatch {
		i.recvTmpl = make([]rnic.PostedRecv, i.opts.RecvBatch)
		for k := range i.recvTmpl {
			i.recvTmpl[k] = rnic.PostedRecv{MR: i.globalMR, Off: 0, Len: 0}
		}
	}
	n := i.opts.RecvBatch - qp.RecvPosted()
	rs := i.recvTmpl[:n]
	if p == nil {
		_ = qp.PostRecvList(rs)
	} else {
		_ = i.ctx.PostRecvList(p, qp, rs)
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

// systemWorkerLoop executes LITE-internal RPC handlers (control plane,
// memory operations, locks, barriers) from the system queue.
func (i *Instance) systemWorkerLoop(p *simtime.Proc) {
	for !i.stopped {
		if !i.adaptiveWait(p, &i.sysCond, func() bool { return i.stopped || len(i.sysQueue) > 0 }, 0) {
			return
		}
		if i.stopped {
			return
		}
		if len(i.sysQueue) == 0 {
			// Another worker drained the queue while this one was
			// paying its wakeup latency.
			continue
		}
		f := i.sysQueue[0]
		i.sysQueue = i.sysQueue[1:]
		if len(f.queue) == 0 {
			continue
		}
		call := f.queue[0]
		f.queue = f.queue[1:]
		if !call.local {
			i.queueHeadUpdate(p, call.Src, call.Func, call.headDelta)
		}
		f.handler(p, call)
	}
}
