// Package rnic simulates an RDMA-capable network interface card and
// its scarce on-NIC SRAM, faithfully enough that the scalability
// pathologies the LITE paper attributes to native RDMA (Figures 4 and
// 5 of Tsai & Zhang, SOSP'17) emerge from cache behaviour rather than
// from curve fitting.
//
// Each NIC owns three SRAM caches — memory-region protection keys,
// page-table entries for virtual-address memory regions, and QP
// contexts — plus FIFO processing pipelines (transmit, receive) and a
// DMA engine, all modeled as simtime resource servers. Memory regions
// registered with physical addresses (the kernel-only path LITE
// exploits) bypass the PTE cache entirely. An RC message longer than
// one MTU crosses the DMA engines and the links as MTU packets
// (packet.go).
//
// On the host clock the datapath allocates nothing per operation once
// warm: a payload lives in a pooled buffer for exactly as long as it is
// in flight, and each deferred pipeline step is a pooled event record
// holding only the fields it reads (pool.go states the lifetime rule).
package rnic

import (
	"errors"

	"lite/internal/fifo"
	"lite/internal/hostmem"
	"lite/internal/obs"
	"lite/internal/simtime"
)

// OpKind identifies a work-request or completion type.
type OpKind int

// Work-request kinds.
const (
	OpWrite OpKind = iota
	OpWriteImm
	OpRead
	OpSend
	OpRecv
	OpFetchAdd
	OpCmpSwap
)

var opNames = [...]string{"WRITE", "WRITE_IMM", "READ", "SEND", "RECV", "FETCH_ADD", "CMP_SWAP"}

func (k OpKind) String() string { return name(opNames[:], int(k)) }

// name returns names[i], or "UNKNOWN" when i is out of range.
func name(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return "UNKNOWN"
	}
	return names[i]
}

// Status is a completion status.
type Status int

// Completion statuses.
const (
	StatusOK Status = iota
	StatusAccessError
	StatusTimeout
	StatusRNRExceeded
	StatusLengthError
	StatusBadKey
)

var statusNames = [...]string{"OK", "ACCESS_ERROR", "TIMEOUT", "RNR_EXCEEDED", "LENGTH_ERROR", "BAD_KEY"}

func (s Status) String() string { return name(statusNames[:], int(s)) }

// Errors returned synchronously by posting paths.
var (
	ErrBadQPState  = errors.New("rnic: QP not connected")
	ErrBadMR       = errors.New("rnic: unknown or foreign memory region")
	ErrBounds      = errors.New("rnic: access outside memory region")
	ErrUDOneSided  = errors.New("rnic: one-sided and atomic verbs unsupported on UD")
	ErrAtomicSize  = errors.New("rnic: atomics operate on exactly 8 bytes")
	ErrAtomicAlign = errors.New("rnic: atomics require an 8-byte-aligned remote address")
	ErrInlineSize  = errors.New("rnic: inline payload exceeds MaxInline")
	ErrInlineKind  = errors.New("rnic: only writes and sends may be inline")
	ErrEmptyList   = errors.New("rnic: empty work-request list")
)

// Perm is an MR permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermAtomic
)

// MR is a registered memory region. Virtual MRs are backed by an
// address space and require per-page NIC translations; physical MRs
// (kernel-only registration) are addressed directly.
type MR struct {
	key  uint32
	node int
	size int64
	perm Perm

	phys bool
	pa   hostmem.PAddr
	as   *hostmem.AddressSpace
	va   hostmem.VAddr
}

// Key returns the region's protection key (serves as lkey and rkey).
func (m *MR) Key() uint32 { return m.key }

// Size returns the region's length in bytes.
func (m *MR) Size() int64 { return m.size }

// Phys reports whether the region was registered with physical
// addresses (the kernel-only path).
func (m *MR) Phys() bool { return m.phys }

func (m *MR) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > m.size {
		return ErrBounds
	}
	return nil
}

// ReadAt copies len(buf) bytes at offset off out of the region.
func (m *MR) ReadAt(off int64, buf []byte) error {
	if err := m.checkRange(off, int64(len(buf))); err != nil {
		return err
	}
	if m.phys {
		return m.as.Mem().Read(m.pa+hostmem.PAddr(off), buf)
	}
	return m.as.ReadV(m.va+hostmem.VAddr(off), buf)
}

// WriteAt copies data into the region at offset off.
func (m *MR) WriteAt(off int64, data []byte) error {
	if err := m.checkRange(off, int64(len(data))); err != nil {
		return err
	}
	if m.phys {
		return m.as.Mem().Write(m.pa+hostmem.PAddr(off), data)
	}
	return m.as.WriteV(m.va+hostmem.VAddr(off), data)
}

// CQE is a completion-queue entry.
type CQE struct {
	WRID     uint64
	QPN      int
	Kind     OpKind
	Status   Status
	Imm      uint32
	HasImm   bool
	Len      int64
	SrcNode  int
	SrcQPN   int
	RecvWRID uint64 // for receive completions: the posted buffer's WRID
}

// CQ is a completion queue. Pollers wait on its condition variable;
// busy-polling callers charge the wait to their CPU account themselves.
type CQ struct {
	// q holds the pending completions in one reused backing array (at
	// 1M+ events the completion path must be alloc-free).
	q    fifo.Queue[CQE]
	cond simtime.Cond
	// deliver, when set, is offered each completion before it is
	// queued; see SetDeliver.
	deliver func(*simtime.Env, CQE) bool
}

// SetDeliver installs fn as the CQ's direct-delivery hook: Push offers
// every completion to fn first, and queues it (waking a poller) only
// if fn reports that it did not take it. A dispatcher installs one to
// hand a completion straight to the thread that waits for it.
func (c *CQ) SetDeliver(fn func(*simtime.Env, CQE) bool) { c.deliver = fn }

// Len returns the number of pending completions.
func (c *CQ) Len() int { return c.q.Len() }

// Push appends a completion and wakes one poller, unless the
// direct-delivery hook takes it. It may be called from scheduler
// callbacks.
func (c *CQ) Push(e *simtime.Env, cqe CQE) {
	if c.deliver != nil && c.deliver(e, cqe) {
		return
	}
	c.q.Push(cqe)
	c.cond.Signal(e)
}

// TryPoll removes and returns the oldest completion, if any.
func (c *CQ) TryPoll() (CQE, bool) { return c.q.Pop() }

// QPType selects the transport.
type QPType int

// Transports.
const (
	RC QPType = iota // reliable connection
	UD               // unreliable datagram
)

// PostedRecv is a receive buffer posted to a QP's receive queue.
type PostedRecv struct {
	MR   *MR
	Off  int64
	Len  int64
	WRID uint64
}

// QP is a queue pair.
type QP struct {
	qpn  int
	nic  *NIC
	typ  QPType
	conn bool
	// lowFired belongs to the low-water notification below; it sits
	// beside conn so the two bools share one word.
	lowFired bool
	// RC peer.
	remoteNode int
	remoteQPN  int

	sendCQ *CQ
	recvCQ *CQ
	// rq[rqHead:] holds the posted receives as runs of identical
	// descriptors — a restock posts hundreds of the same zero-byte IMM
	// buffer, which one run stores — consumed by advancing rqHead and
	// compacted in place on post, the same alloc-free ring discipline
	// as fifo.Queue. posted counts the receives across all runs.
	rq     []recvRun
	rqHead int
	posted int

	// Low-water notification (see SetRecvLowWater): fires once when the
	// posted-receive count crosses below lowWater, re-arms when a
	// restock brings it back to lowWater or above.
	lowWater int
	lowFn    func(*QP)

	owner string // optional subsystem/tenant label for accounting

	chain sendChain // RC ordering state of the PostSendList in progress

	// order is the RC order of multi-packet messages (packet.go),
	// allocated by the QP's first one: most QPs never carry one.
	order *qpOrder
}

// recvRun is n consecutive posted receives sharing one descriptor.
type recvRun struct {
	r PostedRecv
	n int
}

// sendChain carries RC's in-order guarantees across the READ members
// of one PostSendList call — the requests whose result the poster
// consumes. The NIC books a WR's whole timeline when it is posted, and
// the pipeline servers fit a short request into an earlier idle gap —
// so without this a later READ of a chain could execute at the
// responder, or complete, before an earlier one, and a member that
// timed out unsignaled (no CQE) would go unnoticed behind a successful
// signaled member. WRITEs and WRITE_IMMs keep only that loss rule, which
// a stream or a write-imm delivery carries past the PostSendList that
// posted it. Active only while PostSendList dispatches: completions
// computed later (RNR retries) belong to no chain.
type sendChain struct {
	exec simtime.Time // responder instant of the latest READ member
	done simtime.Time // completion instant of the latest member
	id   int64        // the chain's doorbell: it tells chains apart
	on   bool
	lost bool // an unsignaled member timed out without a CQE
}

// begin arms the chain state for the PostSendList rung as doorbell id.
func (c *sendChain) begin(id int64) { *c = sendChain{on: true, id: id} }

// notBefore returns t moved no earlier than *prev, and records the
// result as the new *prev.
func notBefore(prev *simtime.Time, t simtime.Time) simtime.Time {
	if t < *prev {
		return *prev
	}
	*prev = t
	return t
}

// complete applies the chain rules to one member's send completion:
// its instant is ordered after its predecessors', an unsignaled failure
// (which has no CQE) is remembered, and the next signaled member that
// would have succeeded reports it.
func (c *sendChain) complete(t simtime.Time, signaled bool, st Status) (simtime.Time, Status) {
	t = notBefore(&c.done, t)
	switch {
	case !signaled && st != StatusOK:
		c.lost = true
	case signaled && st == StatusOK && c.lost:
		st = StatusTimeout
	}
	return t, st
}

// QPN returns the queue pair number (unique per NIC).
func (q *QP) QPN() int { return q.qpn }

// SetOwner labels the QP with the subsystem that created it (e.g.
// "lite/shared-mesh"). Purely an accounting tag — multi-tenant audits
// use it to prove QP counts scale with nodes, not tenants.
func (q *QP) SetOwner(o string) { q.owner = o }

// SendCQ returns the send completion queue.
func (q *QP) SendCQ() *CQ { return q.sendCQ }

// RecvCQ returns the receive completion queue.
func (q *QP) RecvCQ() *CQ { return q.recvCQ }

// Connect pairs an RC QP with a remote QP. UD QPs need no connection.
func (q *QP) Connect(remoteNode, remoteQPN int) {
	q.remoteNode = remoteNode
	q.remoteQPN = remoteQPN
	q.conn = true
}

// RemoteNode returns the connected peer's node id (RC only).
func (q *QP) RemoteNode() int { return q.remoteNode }

// RemoteQPN returns the connected peer's queue pair number (RC only).
func (q *QP) RemoteQPN() int { return q.remoteQPN }

// SetRecvLowWater arms a low-water notification on the receive queue:
// fn runs — synchronously, in whatever context consumed the receive —
// when the posted count crosses from >= lw to < lw, and re-arms once a
// restock brings the count back to lw or above. The callback is pure
// host-side bookkeeping and must not consume virtual time. LITE's
// background reposter uses it to find the QPs needing an IMM-buffer
// restock in O(QPs below low water) instead of scanning every peer's
// QPs on each completion.
func (q *QP) SetRecvLowWater(lw int, fn func(*QP)) {
	q.lowWater = lw
	q.lowFn = fn
	q.lowFired = false
	q.notifyRecvLow()
}

// notifyRecvLow fires the armed low-water callback if the queue just
// dropped below the mark.
func (q *QP) notifyRecvLow() {
	if q.lowFn != nil && !q.lowFired && q.RecvPosted() < q.lowWater {
		q.lowFired = true
		q.lowFn(q)
	}
}

// rearmRecvLow re-arms the notification after a restock refilled the
// queue.
func (q *QP) rearmRecvLow() {
	if q.lowFired && q.RecvPosted() >= q.lowWater {
		q.lowFired = false
	}
}

// pushRecv appends n copies of r to the receive queue, extending the
// tail run when r repeats its descriptor. A new run reuses the consumed
// slots at the front before growing the backing array.
func (q *QP) pushRecv(r PostedRecv, n int) {
	q.posted += n
	if k := len(q.rq); k > q.rqHead && q.rq[k-1].r == r {
		q.rq[k-1].n += n
		return
	}
	if q.rqHead > 0 && len(q.rq) == cap(q.rq) {
		k := copy(q.rq, q.rq[q.rqHead:])
		clear(q.rq[k:])
		q.rq = q.rq[:k]
		q.rqHead = 0
	}
	q.rq = append(q.rq, recvRun{r, n})
}

// PostRecv posts a receive buffer. The buffer's MR must belong to the
// same node as the QP.
func (q *QP) PostRecv(r PostedRecv) error { return q.PostRecvN(r, 1) }

// PostRecvN posts n copies of one receive buffer behind one doorbell,
// as the single run the receive queue stores it as.
func (q *QP) PostRecvN(r PostedRecv, n int) error {
	if n <= 0 {
		return ErrEmptyList
	}
	if r.MR == nil || r.MR.node != q.nic.node {
		return ErrBadMR
	}
	if err := r.MR.checkRange(r.Off, r.Len); err != nil {
		return err
	}
	q.pushRecv(r, n)
	q.rearmRecvLow()
	return nil
}

// RecvPosted returns the number of posted receive buffers.
func (q *QP) RecvPosted() int { return q.posted }

func (q *QP) popRecv() (PostedRecv, bool) {
	if q.posted == 0 {
		return PostedRecv{}, false
	}
	run := &q.rq[q.rqHead]
	r := run.r
	q.posted--
	run.n--
	if run.n == 0 {
		*run = recvRun{} // release the MR reference
		q.rqHead++
		if q.rqHead == len(q.rq) {
			q.rq = q.rq[:0]
			q.rqHead = 0
		}
	}
	q.notifyRecvLow()
	return r, true
}

// WR is a work request for PostSend.
type WR struct {
	Kind     OpKind
	WRID     uint64
	Signaled bool

	// Inline requests that the payload travel inside the WQE itself:
	// the posting CPU PIO-copies it at the doorbell (the verbs layer
	// charges that copy), so the NIC skips both its WQE fetch and the
	// payload DMA read — the tx_dma pipeline stage disappears. Only
	// writes and sends of at most Params.MaxInline bytes qualify. The
	// buffer is free for reuse as soon as the post returns.
	Inline bool

	// Local buffer (gather source for writes/sends, scatter target for
	// reads and atomic results).
	LocalMR  *MR
	LocalOff int64
	Len      int64

	// LocalBuf, if non-nil, is used instead of LocalMR: the NIC
	// addresses the host buffer directly by physical address with no
	// local key lookup or translation. This models LITE's kernel path,
	// which covers all of physical memory with one always-resident
	// global registration and hands the NIC raw physical addresses.
	LocalBuf []byte

	// Remote buffer for one-sided operations.
	RemoteKey uint32
	RemoteOff int64

	// Immediate value for WriteImm.
	Imm uint32

	// UD addressing.
	DestNode int
	DestQPN  int

	// Atomics. The remote address (RemoteOff within the target MR's
	// physical placement) must be 8-byte aligned and Len must be 8.
	Add     uint64
	Compare uint64
	Swap    uint64

	// AtomicResult, if non-nil, receives the 8-byte old value in
	// addition to it being written to the local buffer.
	AtomicResult *uint64

	// Trace, if non-nil, is the caller's observability span; the NIC
	// hangs its pipeline-stage spans off it. Purely in-simulation
	// metadata: it is never part of the wire image, so tracing cannot
	// perturb message sizes or timing.
	Trace *obs.Span
}
