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
// exploits) bypass the PTE cache entirely.
package rnic

import (
	"errors"

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
	// Masked extended atomics (ConnectX "extended atomic operations"):
	// a masked compare-and-swap compares and swaps only under caller
	// masks, and a masked fetch-and-add treats the 64-bit word as
	// independent fields whose carries do not cross the boundary mask.
	OpMaskCmpSwap
	OpMaskFetchAdd
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCmpSwap:
		return "CMP_SWAP"
	case OpMaskCmpSwap:
		return "MASK_CMP_SWAP"
	case OpMaskFetchAdd:
		return "MASK_FETCH_ADD"
	}
	return "UNKNOWN"
}

// IsAtomic reports whether the kind is one of the atomic verbs.
func (k OpKind) IsAtomic() bool {
	switch k {
	case OpFetchAdd, OpCmpSwap, OpMaskCmpSwap, OpMaskFetchAdd:
		return true
	}
	return false
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

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusAccessError:
		return "ACCESS_ERROR"
	case StatusTimeout:
		return "TIMEOUT"
	case StatusRNRExceeded:
		return "RNR_EXCEEDED"
	case StatusLengthError:
		return "LENGTH_ERROR"
	case StatusBadKey:
		return "BAD_KEY"
	}
	return "UNKNOWN"
}

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

	owner string // optional subsystem/tenant label for accounting
}

// Key returns the region's protection key (serves as lkey and rkey).
func (m *MR) Key() uint32 { return m.key }

// SetOwner labels the region with the subsystem that registered it
// (e.g. "lite/global"). Purely an accounting tag: it never affects
// permission checks or costs.
func (m *MR) SetOwner(o string) { m.owner = o }

// Owner returns the region's accounting label ("" if untagged).
func (m *MR) Owner() string { return m.owner }

// Size returns the region's length in bytes.
func (m *MR) Size() int64 { return m.size }

// Node returns the node the region lives on.
func (m *MR) Node() int { return m.node }

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
	cqn int
	// q[head:] holds the pending completions. Consuming advances head
	// instead of re-slicing the base away, and Push compacts in place
	// when the tail is full — the backing array is reused forever
	// instead of reallocating once per queue lap (at 1M+ events the
	// completion path must be alloc-free).
	q    []CQE
	head int
	cond simtime.Cond
}

// CQN returns the completion queue number.
func (c *CQ) CQN() int { return c.cqn }

// Len returns the number of pending completions.
func (c *CQ) Len() int { return len(c.q) - c.head }

// Push appends a completion and wakes one poller. It may be called
// from scheduler callbacks.
func (c *CQ) Push(e *simtime.Env, cqe CQE) {
	if c.head > 0 && len(c.q) == cap(c.q) {
		n := copy(c.q, c.q[c.head:])
		clear(c.q[n:])
		c.q = c.q[:n]
		c.head = 0
	}
	c.q = append(c.q, cqe)
	c.cond.Signal(e)
}

// TryPoll removes and returns the oldest completion, if any.
func (c *CQ) TryPoll() (CQE, bool) {
	if c.head == len(c.q) {
		return CQE{}, false
	}
	cqe := c.q[c.head]
	c.q[c.head] = CQE{} // release references held by the slot
	c.head++
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
	}
	return cqe, true
}

// Poll blocks until a completion is available and returns it. The
// caller decides whether the wait was a busy-poll (and charges CPU
// accordingly) or a sleep.
func (c *CQ) Poll(p *simtime.Proc) CQE {
	for {
		if cqe, ok := c.TryPoll(); ok {
			return cqe
		}
		c.cond.Wait(p)
	}
}

// PollTimeout is Poll with a deadline; ok is false on timeout.
func (c *CQ) PollTimeout(p *simtime.Proc, d simtime.Time) (CQE, bool) {
	deadline := p.Now() + d
	for {
		if cqe, ok := c.TryPoll(); ok {
			return cqe, true
		}
		remain := deadline - p.Now()
		if remain <= 0 {
			return CQE{}, false
		}
		c.cond.WaitTimeout(p, remain)
	}
}

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
	// RC peer.
	remoteNode int
	remoteQPN  int

	sendCQ *CQ
	recvCQ *CQ
	// rq[rqHead:] holds the posted receives as runs of identical
	// descriptors — a restock posts hundreds of the same zero-byte IMM
	// buffer, which one run stores — consumed by advancing rqHead and
	// compacted in place on post, the same alloc-free ring discipline
	// as CQ.q. posted counts the receives across all runs.
	rq     []recvRun
	rqHead int
	posted int

	// Low-water notification (see SetRecvLowWater): fires once when the
	// posted-receive count crosses below lowWater, re-arms when a
	// restock brings it back to lowWater or above.
	lowWater int
	lowFn    func(*QP)
	lowFired bool

	drops int64 // UD datagrams dropped for lack of a posted receive

	owner string // optional subsystem/tenant label for accounting

	chain sendChain // RC ordering state of the PostSendList in progress
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
// signaled READ. Active only while PostSendList dispatches: completions
// computed later (write-imm delivery, RNR retries) belong to no chain.
type sendChain struct {
	on   bool
	exec simtime.Time // responder instant of the latest READ member
	done simtime.Time // completion instant of the latest member
	lost bool         // an unsignaled member timed out without a CQE
}

// begin arms the chain state for one PostSendList dispatch.
func (c *sendChain) begin() { c.on, c.exec, c.done, c.lost = true, 0, 0, false }

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

// Owner returns the QP's accounting label ("" if untagged).
func (q *QP) Owner() string { return q.owner }

// Type returns the transport type.
func (q *QP) Type() QPType { return q.typ }

// NIC returns the owning NIC.
func (q *QP) NIC() *NIC { return q.nic }

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

// Connected reports whether an RC QP has been paired.
func (q *QP) Connected() bool { return q.conn }

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

// pushRecv appends r to the receive queue, extending the tail run when
// r repeats its descriptor. A new run reuses the consumed slots at the
// front before growing the backing array.
func (q *QP) pushRecv(r PostedRecv) {
	q.posted++
	if n := len(q.rq); n > q.rqHead && q.rq[n-1].r == r {
		q.rq[n-1].n++
		return
	}
	if q.rqHead > 0 && len(q.rq) == cap(q.rq) {
		n := copy(q.rq, q.rq[q.rqHead:])
		clear(q.rq[n:])
		q.rq = q.rq[:n]
		q.rqHead = 0
	}
	q.rq = append(q.rq, recvRun{r, 1})
}

// PostRecv posts a receive buffer. The buffer's MR must belong to the
// same node as the QP.
func (q *QP) PostRecv(r PostedRecv) error {
	if r.MR == nil || r.MR.node != q.nic.node {
		return ErrBadMR
	}
	if err := r.MR.checkRange(r.Off, r.Len); err != nil {
		return err
	}
	q.pushRecv(r)
	q.rearmRecvLow()
	return nil
}

// PostRecvList posts a batch of receive buffers behind one doorbell.
// The whole list is validated before any buffer is enqueued, so a bad
// entry leaves the receive queue untouched.
func (q *QP) PostRecvList(rs []PostedRecv) error {
	if len(rs) == 0 {
		return ErrEmptyList
	}
	for k := range rs {
		r := &rs[k]
		if r.MR == nil || r.MR.node != q.nic.node {
			return ErrBadMR
		}
		if err := r.MR.checkRange(r.Off, r.Len); err != nil {
			return err
		}
	}
	for _, r := range rs {
		q.pushRecv(r)
	}
	q.rearmRecvLow()
	return nil
}

// RecvPosted returns the number of posted receive buffers.
func (q *QP) RecvPosted() int { return q.posted }

// Drops returns the number of UD datagrams dropped because no receive
// buffer was posted.
func (q *QP) Drops() int64 { return q.drops }

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

	// Masked-atomic operands (ConnectX extended atomics). For
	// OpMaskCmpSwap the compare applies only under CompareMask and the
	// swap replaces only the bits under SwapMask. For OpMaskFetchAdd
	// each set bit of BoundaryMask marks the most significant bit of an
	// independent field: carries do not propagate across it, so several
	// narrow counters can share one 64-bit word. Plain OpCmpSwap and
	// OpFetchAdd ignore all three.
	CompareMask  uint64
	SwapMask     uint64
	BoundaryMask uint64

	// AtomicResult, if non-nil, receives the 8-byte old value in
	// addition to it being written to the local buffer.
	AtomicResult *uint64

	// Trace, if non-nil, is the caller's observability span; the NIC
	// hangs its pipeline-stage spans off it. Purely in-simulation
	// metadata: it is never part of the wire image, so tracing cannot
	// perturb message sizes or timing.
	Trace *obs.Span
}
