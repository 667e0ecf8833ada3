package rnic

import (
	"encoding/binary"

	"lite/internal/params"
	"lite/internal/simtime"
)

// PostSend posts a work request on qp with the operation considered
// handed to the NIC at time at (the caller has already charged the
// doorbell cost). It returns immediately; completions are reported
// through the QP's completion queues. Synchronous errors are returned
// only for malformed requests.
func (n *NIC) PostSend(at simtime.Time, qp *QP, wr WR) error {
	if err := n.validate(qp, &wr); err != nil {
		return err
	}
	n.Doorbells++
	n.post(at, qp, &wr)
	return nil
}

// PostSendList posts a linked chain of work requests handed to the NIC
// in one doorbell ring at time at (the caller charges a single
// NICDoorbell for the whole chain). Each WQE still pays its own
// processing time in the transmit pipeline; the chain is validated in
// full before any request is posted, so a malformed entry posts
// nothing. READ members keep RC's order (see sendChain): they execute
// at the responder in chain order, their completions arrive in chain
// order, and the transport timeout of an unsignaled member, which has no
// CQE of its own, is reported by the next signaled READ, WRITE or
// WRITE_IMM, no earlier than that timeout. Members held behind a
// multi-packet message (packet.go) keep these rules when they are
// released.
func (n *NIC) PostSendList(at simtime.Time, qp *QP, wrs []WR) error {
	if len(wrs) == 0 {
		return ErrEmptyList
	}
	for k := range wrs {
		if err := n.validate(qp, &wrs[k]); err != nil {
			return err
		}
	}
	n.Doorbells++
	qp.chain.begin(n.Doorbells)
	for k := range wrs {
		n.post(at, qp, &wrs[k])
	}
	qp.chain.on = false
	return nil
}

// post takes one validated work request at its post instant. The NIC
// reads the gather buffer of a WRITE, WRITE_IMM or UD SEND now (the
// host buffer is the caller's again once the post returns), then
// dispatches the request, or holds it while an earlier multi-packet
// message holds the QP's request direction (packet.go).
func (n *NIC) post(at simtime.Time, qp *QP, wr *WR) {
	n.OpsPosted++
	if wr.Inline {
		n.obs.Add("rnic.inline_wqes", 1)
	}
	var payload []byte
	switch wr.Kind {
	case OpWrite, OpWriteImm, OpSend:
		payload = n.reg.snapshot(wr)
	}
	if qp.reqBlocked() {
		n.hold(at, qp, wr, payload)
		return
	}
	n.dispatch(at, qp, wr, payload)
}

// hold queues wr behind the multi-packet message that holds qp's
// request direction. It is apart from post so that the common path's
// stack frame stays small: the held record copies the whole WR.
func (n *NIC) hold(at simtime.Time, qp *QP, wr *WR, payload []byte) {
	h := n.helds.get()
	*h = heldWR{wr: *wr, payload: payload, at: at, chain: qp.chain}
	qp.order.req.held.Push(h)
}

// dispatch routes one work request, with its payload snapshot, into the
// NIC pipelines. Nothing downstream keeps wr: every deferred step is a
// record holding only the fields it reads.
func (n *NIC) dispatch(at simtime.Time, qp *QP, wr *WR, payload []byte) {
	switch wr.Kind {
	case OpWrite, OpWriteImm:
		n.postWrite(at, qp, wr, payload)
	case OpRead:
		n.postRead(at, qp, wr)
	case OpSend:
		n.postSendUD(at, qp, wr, payload)
	case OpFetchAdd, OpCmpSwap:
		n.postAtomic(at, qp, wr)
	}
}

func (n *NIC) validate(qp *QP, wr *WR) error {
	// Two-sided SEND is modeled on UD only: nothing posts it on RC.
	if qp.typ == RC && (!qp.conn || wr.Kind == OpSend) {
		return ErrBadQPState
	}
	if qp.typ == UD && wr.Kind != OpSend {
		return ErrUDOneSided
	}
	switch wr.Kind {
	case OpWrite, OpWriteImm, OpRead, OpSend:
	case OpFetchAdd, OpCmpSwap:
		if wr.Len != 8 {
			return ErrAtomicSize
		}
		if wr.RemoteOff&7 != 0 {
			return ErrAtomicAlign
		}
	default:
		return ErrBadQPState
	}
	if wr.Inline {
		switch wr.Kind {
		case OpWrite, OpWriteImm, OpSend:
		default:
			return ErrInlineKind
		}
		if wr.Len > int64(n.cfg().MaxInline) {
			return ErrInlineSize
		}
	}
	if wr.LocalBuf != nil {
		if int64(len(wr.LocalBuf)) < wr.Len {
			return ErrBounds
		}
		return nil
	}
	if wr.LocalMR != nil {
		if wr.LocalMR.node != n.node {
			return ErrBadMR
		}
		if err := wr.LocalMR.checkRange(wr.LocalOff, wr.Len); err != nil {
			return err
		}
	} else if wr.Len > 0 && wr.Kind != OpWriteImm {
		return ErrBadMR
	}
	return nil
}

// localCost returns the NIC-side cost of addressing the gather/scatter
// buffer of a work request: zero for raw physical buffers (LITE path)
// and for inline WQEs (the payload arrived with the doorbell, so the
// NIC never touches the host buffer), key+PTE costs for registered
// regions.
func (n *NIC) localCost(wr *WR) simtime.Time {
	if wr.Inline || wr.LocalBuf != nil || wr.LocalMR == nil || wr.Len == 0 {
		return 0
	}
	return n.mrAccessCost(wr.LocalMR, wr.LocalOff, wr.Len)
}

// txSchedule books the transmit-side pipeline stages of an outbound
// request: WQE processing in the tx pipe, then the DMA read of its first
// packet's payload (first bytes). Inline WQEs process faster (no WQE
// fetch from the host send queue) and skip the DMA stage entirely, so
// t1 == t2 and no tx_dma span is ever recorded for them.
func (n *NIC) txSchedule(at simtime.Time, qp *QP, wr *WR, first int64) (t1, t2 simtime.Time) {
	cfg := n.cfg()
	proc := cfg.NICProcess
	if wr.Inline {
		proc = cfg.NICInlineProcess
	}
	t1 = n.txPipe.Reserve(at, proc+n.qpCost(qp.qpn)+n.localCost(wr))
	if wr.Inline {
		return t1, t1
	}
	return t1, n.dma.Reserve(t1, n.dmaTime(first))
}

// writeLocal scatters result bytes into a request's local buffer. It
// takes the three local fields, not the WR, so a deferred step holds
// those and the ~200-byte request stays off the heap.
func writeLocal(buf []byte, mr *MR, off int64, data []byte) {
	if buf != nil {
		copy(buf, data)
		return
	}
	if mr != nil {
		_ = mr.WriteAt(off, data)
	}
}

func (n *NIC) env() *simtime.Env        { return n.reg.env }
func (n *NIC) cfg() *params.Config      { return n.reg.cfg }
func (n *NIC) peer(node int) *NIC       { return n.reg.NIC(node) }
func (n *NIC) ackProcess() simtime.Time { return n.cfg().NICProcess / 2 }

// wrRef is what a work request's send completion reports, and so all
// a deferred completion needs of it.
type wrRef struct {
	id       uint64
	kind     OpKind
	len      int64
	signaled bool
}

func refOf(wr *WR) wrRef { return wrRef{wr.WRID, wr.Kind, wr.Len, wr.Signaled} }

// cqPush is the deferred push of one completion (a send completion or
// a nack's error).
type cqPush struct {
	n   *NIC
	cq  *CQ
	cqe CQE
}

func (r *cqPush) Fire(e *simtime.Env) {
	cq, cqe := r.cq, r.cqe
	r.n.pushes.put(r)
	cq.Push(e, cqe)
}

// pushAt pushes cqe onto cq at time t.
func (n *NIC) pushAt(t simtime.Time, cq *CQ, cqe CQE) {
	r := n.pushes.get()
	*r = cqPush{n: n, cq: cq, cqe: cqe}
	n.env().Schedule(t, r)
}

// completeSend pushes a send-side completion at time t if requested.
func (n *NIC) completeSend(t simtime.Time, qp *QP, ref wrRef, st Status) {
	// Failure accounting happens regardless of signaling, so chaos
	// runs can report losses that produced no visible completion.
	switch st {
	case StatusTimeout:
		n.obs.Add("rnic.timeouts", 1)
	case StatusRNRExceeded:
		n.obs.Add("rnic.rnr_exhausted", 1)
	}
	if !ref.signaled {
		return
	}
	n.pushAt(t, qp.sendCQ, CQE{WRID: ref.id, QPN: qp.qpn, Kind: ref.kind, Status: st, Len: ref.len})
}

// timeout fails a request after the RC transport timeout from at, the
// instant it (or one of its packets, or its ack) was lost, and returns
// the failure's completion instant: no earlier than floor (a stream's
// doneFloor; zero for a failure at post), nor than the chain members
// before it.
func (n *NIC) timeout(at simtime.Time, qp *QP, ref wrRef, floor simtime.Time) simtime.Time {
	t := max(at+n.cfg().RCTimeout, floor)
	if qp.chain.on {
		t, _ = qp.chain.complete(t, ref.signaled, StatusTimeout)
	}
	n.completeSend(t, qp, ref, StatusTimeout)
	return t
}

// responder resolves what a request on qp for [off, off+size) of the
// remote region key finds at its peer: the peer's NIC and QP, the
// region, and the request's fate. That is StatusTimeout when the
// request did not arrive (the fabric lost it) or its peer or the
// peer's QP is missing, a nack's status when the key, the permission
// perm or the range is bad, and StatusOK otherwise. It books nothing.
func (n *NIC) responder(arrived bool, qp *QP, key uint32, off, size int64, perm Perm) (*NIC, *QP, *MR, Status) {
	rn := n.peer(qp.remoteNode)
	if !arrived || rn == nil {
		return nil, nil, nil, StatusTimeout
	}
	rqp := rn.lookupQP(qp.remoteQPN)
	if rqp == nil {
		return nil, nil, nil, StatusTimeout
	}
	rmr, found := rn.LookupMR(key)
	switch {
	case !found:
		return rn, rqp, nil, StatusBadKey
	case rmr.perm&perm == 0:
		return rn, rqp, rmr, StatusAccessError
	case rmr.checkRange(off, size) != nil:
		return rn, rqp, rmr, StatusLengthError
	}
	return rn, rqp, rmr, StatusOK
}

// refuse fails a request posted at at that its responder did not take
// (st, from responder): a lost one after the transport timeout, a
// rejected one after a negative ack round trip from rn, which the
// request reached at t.
func (n *NIC) refuse(at, t simtime.Time, rn *NIC, qp *QP, ref wrRef, st Status) {
	if st == StatusTimeout {
		n.timeout(at, qp, ref, 0)
		return
	}
	// Error detected at remote rx pipeline; small processing then nack.
	cfg := n.cfg()
	t4 := rn.rxPipe.Reserve(t, cfg.NICProcess)
	back, ok := n.reg.fab.ReservePath(t4, rn.node, n.node, int64(cfg.AckBytes))
	if !ok {
		n.timeout(t, qp, ref, 0)
		return
	}
	t6 := n.rxPipe.Reserve(back, n.ackProcess())
	if qp.chain.on {
		t6 = notBefore(&qp.chain.done, t6)
	}
	// Errors are always reported, signaled or not.
	n.pushAt(t6, qp.sendCQ, CQE{WRID: ref.id, QPN: qp.qpn, Kind: ref.kind, Status: st, Len: ref.len})
}

// snapshot copies the gather buffer into a pooled payload buffer at
// post time (the caller may reuse the host buffer once the post
// returns, as LITE does). It returns nil for a zero-length request, one
// with no gather buffer, or one whose buffer cannot be read.
func (r *Registry) snapshot(wr *WR) []byte {
	if wr.Len == 0 || wr.LocalBuf == nil && wr.LocalMR == nil {
		return nil
	}
	buf := r.bufs.get(wr.Len)
	if wr.LocalBuf != nil {
		copy(buf, wr.LocalBuf[:wr.Len])
		return buf
	}
	if err := wr.LocalMR.ReadAt(wr.LocalOff, buf); err != nil {
		r.bufs.put(buf)
		return nil
	}
	return buf
}

// commit is a write's remote commit: the responder's DMA stores the
// payload.
type commit struct {
	n       *NIC
	rn      *NIC
	rmr     *MR
	off     int64
	payload []byte
}

func (c *commit) Fire(*simtime.Env) {
	c.rn.OpsDelivered++
	_ = c.rmr.WriteAt(c.off, c.payload)
	n := c.n
	n.reg.bufs.put(c.payload)
	n.commits.put(c)
}

// postWrite implements one-sided RDMA write and write-with-immediate.
func (n *NIC) postWrite(at simtime.Time, qp *QP, wr *WR, payload []byte) {
	cfg := n.cfg()
	ref := refOf(wr)
	first := firstPacket(wr.Len)
	t1, t2 := n.txSchedule(at, qp, wr, first)

	start, t3, ok := n.reg.fab.ReservePacket(t2, n.node, qp.remoteNode, first+int64(cfg.WireHeader), 0)
	rn, rqp, rmr, st := n.responder(ok, qp, wr.RemoteKey, wr.RemoteOff, wr.Len, PermWrite)
	if st != StatusOK {
		n.reg.bufs.put(payload)
		n.refuse(at, t3, rn, qp, ref, st)
		return
	}
	s := n.streams.get()
	*s = stream{n: n, qp: qp, src: n, sink: rn, kind: wr.Kind, ref: ref, left: wr.Len - first,
		rqp: rqp, rmr: rmr, off: wr.RemoteOff, imm: wr.Imm, payload: payload,
		trace: wr.Trace, inline: wr.Inline, at: at, t1: t1, d0: t2, a0: t3}
	s.rxFrom = rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, wr.Len))
	s.join(&qp.chain)
	if s.carry(first, start) {
		s.finish(t2, t3, first)
	}
}

// immDelivery commits a write-imm at the target: it writes the payload,
// consumes one posted receive for the immediate, and pushes a receive
// completion. On receiver-not-ready it reschedules itself, and reports
// RNR exhaustion after RNRRetryMax retries.
type immDelivery struct {
	n, rn   *NIC
	rqp, qp *QP
	rmr     *MR
	ref     wrRef
	off     int64
	imm     uint32
	payload []byte
	attempt int
	lost    bool         // behind a chain member lost without a CQE
	floor   simtime.Time // that member's failure instant
}

func (d *immDelivery) Fire(e *simtime.Env) {
	n, cfg := d.n, d.n.cfg()
	if _, ok := d.rqp.popRecv(); !ok {
		if d.attempt < cfg.RNRRetryMax {
			d.attempt++
			e.Schedule(e.Now()+cfg.RNRRetryDelay, d)
			return
		}
		n.completeSend(e.Now(), d.qp, d.ref, StatusRNRExceeded)
	} else {
		d.rn.OpsDelivered++
		if len(d.payload) > 0 {
			_ = d.rmr.WriteAt(d.off, d.payload)
		}
		d.rqp.recvCQ.Push(e, CQE{
			QPN:     d.rqp.qpn,
			Kind:    OpWriteImm,
			Status:  StatusOK,
			Imm:     d.imm,
			HasImm:  true,
			Len:     d.ref.len,
			SrcNode: n.node,
			SrcQPN:  d.qp.qpn,
		})
		n.ackBack(e.Now(), d.rn.node, d.qp, d.ref, d.lost, d.floor)
	}
	n.reg.bufs.put(d.payload)
	n.imms.put(d)
}

// ackBack schedules the RC acknowledgment and the sender completion. A
// signaled WR behind a chain member that failed without a CQE (lost)
// reports that failure instead, no earlier than floor, the instant it
// completed at.
func (n *NIC) ackBack(t simtime.Time, dst int, qp *QP, ref wrRef, lost bool, floor simtime.Time) {
	cfg := n.cfg()
	back, ok := n.reg.fab.ReservePath(t, dst, n.node, int64(cfg.AckBytes))
	if !ok {
		n.timeout(t, qp, ref, 0)
		return
	}
	t6 := n.rxPipe.Reserve(back, n.ackProcess())
	st := StatusOK
	if lost && ref.signaled {
		t6, st = max(t6, floor), StatusTimeout
	}
	n.completeSend(t6, qp, ref, st)
}

// readOp is an RDMA read's two deferred steps. It first fires at the
// responder's DMA instant (of the first packet, for a multi-packet
// response) and snapshots the remote bytes into a pooled buffer; it
// fires again at the requester's last DMA instant and scatters them
// into the local buffer, which returns the payload buffer.
type readOp struct {
	n, rn *NIC
	rmr   *MR
	roff  int64
	len   int64
	data  []byte

	// The scatter target. lost marks a read whose response never comes
	// back, so the snapshot step is its last.
	buf     []byte
	mr      *MR
	off     int64
	lost    bool
	snapped bool
}

func (r *readOp) Fire(*simtime.Env) {
	if !r.snapped {
		r.snapped = true
		r.rn.OpsDelivered++
		if r.lost {
			r.drop()
			return
		}
		if r.len > 0 {
			r.data = r.n.reg.bufs.get(r.len)
			if r.rmr.ReadAt(r.roff, r.data) != nil {
				// The DMA delivers zeros, never a pooled buffer's
				// leftovers.
				clear(r.data)
			}
		}
		return
	}
	writeLocal(r.buf, r.mr, r.off, r.data)
	r.drop()
}

// abandon ends a read whose response will not arrive: its snapshot
// step, if still to come, is its last.
func (r *readOp) abandon() {
	if r.snapped {
		r.drop()
		return
	}
	r.lost = true
}

// drop returns the read's payload buffer and its record.
func (r *readOp) drop() {
	r.n.reg.bufs.put(r.data)
	r.n.reads.put(r)
}

// postRead implements one-sided RDMA read.
func (n *NIC) postRead(at simtime.Time, qp *QP, wr *WR) {
	cfg := n.cfg()
	ref := refOf(wr)
	t1 := n.txPipe.Reserve(at, cfg.NICProcess+n.qpCost(qp.qpn)+n.localCost(wr))

	t3, ok := n.reg.fab.ReservePath(t1, n.node, qp.remoteNode, int64(cfg.WireHeader))
	rn, _, rmr, st := n.responder(ok, qp, wr.RemoteKey, wr.RemoteOff, wr.Len, PermRead)
	if st != StatusOK {
		n.refuse(at, t3, rn, qp, ref, st)
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, wr.Len))

	r := n.reads.get()
	*r = readOp{n: n, rn: rn, rmr: rmr, roff: wr.RemoteOff, len: wr.Len, buf: wr.LocalBuf, mr: wr.LocalMR, off: wr.LocalOff}
	s := n.streams.get()
	*s = stream{n: n, qp: qp, src: rn, sink: n, kind: OpRead, ref: ref, read: r, ready: t4,
		trace: wr.Trace, at: at, t1: t1, reqAt: t3}
	s.join(&qp.chain)
	if qp.respBlocked() {
		qp.order.resp.held.Push(s)
		return
	}
	n.respond(s, t4)
}

// postSendUD implements unreliable datagram send: fire and forget,
// dropped silently if the destination has no posted receive. A datagram
// is one packet, booked whole.
func (n *NIC) postSendUD(at simtime.Time, qp *QP, wr *WR, payload []byte) {
	cfg := n.cfg()
	_, t2 := n.txSchedule(at, qp, wr, wr.Len)

	// UD completes locally as soon as the datagram leaves the NIC.
	n.completeSend(t2, qp, refOf(wr), StatusOK)

	t3, ok := n.reg.fab.ReservePath(t2, n.node, wr.DestNode, wr.Len+int64(cfg.UDHeader))
	rn := n.peer(wr.DestNode)
	if !ok || rn == nil {
		n.reg.bufs.put(payload)
		return // lost on the wire; UD gives no feedback
	}
	rqp := rn.lookupQP(wr.DestQPN)
	if rqp == nil || rqp.typ != UD {
		n.reg.bufs.put(payload)
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(wr.DestQPN))
	srcNode, srcQPN, length := n.node, qp.qpn, wr.Len
	n.env().At(t4, func(e *simtime.Env) {
		recv, ok := rqp.popRecv()
		if !ok || recv.Len < length {
			rn.obs.Add("rnic.ud_drops", 1)
			n.reg.bufs.put(payload)
			return
		}
		t5 := rn.rxPipe.Reserve(e.Now(), rn.mrAccessCost(recv.MR, recv.Off, length))
		t6 := rn.dma.Reserve(t5, params.TransferTime(length, cfg.DMABandwidth))
		e.At(t6, func(e2 *simtime.Env) {
			rn.OpsDelivered++
			_ = recv.MR.WriteAt(recv.Off, payload)
			n.reg.bufs.put(payload)
			rqp.recvCQ.Push(e2, CQE{
				QPN:      rqp.qpn,
				Kind:     OpRecv,
				Status:   StatusOK,
				Len:      length,
				SrcNode:  srcNode,
				SrcQPN:   srcQPN,
				RecvWRID: recv.WRID,
			})
		})
	})
}

// AtomicNext returns the word an atomic work request leaves behind when
// it finds old in memory. The responder NIC executes every atomic
// through it; exported so a host-side fast path on a node-local word
// (LITE's) applies the identical rule.
func (wr *WR) AtomicNext(old uint64) uint64 {
	switch wr.Kind {
	case OpFetchAdd:
		return old + wr.Add
	case OpCmpSwap:
		if old == wr.Compare {
			return wr.Swap
		}
	}
	return old
}

// postAtomic implements the 8-byte atomics, fetch-add and cmp-swap,
// executed at the remote NIC in arrival order.
func (n *NIC) postAtomic(at simtime.Time, qp *QP, wr *WR) {
	cfg := n.cfg()
	ref := refOf(wr)
	if wr.Kind == OpFetchAdd {
		n.obs.Add("rnic.atomic.faa", 1)
	} else {
		n.obs.Add("rnic.atomic.cas", 1)
	}
	t1 := n.txPipe.Reserve(at, cfg.NICProcess+n.qpCost(qp.qpn)+n.localCost(wr))

	dst := qp.remoteNode
	t3, ok := n.reg.fab.ReservePath(t1, n.node, dst, int64(cfg.WireHeader)+16)
	rn, _, rmr, st := n.responder(ok, qp, wr.RemoteKey, wr.RemoteOff, 8, PermAtomic)
	if st != StatusOK {
		n.refuse(at, t3, rn, qp, ref, st)
		return
	}
	// The remote rx pipeline is the atomicity serialization point: two
	// concurrent atomics to one address reserve it back to back, and
	// each read-modify-write executes whole at its reserved instant, so
	// the second always observes the first's result.
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, 8)+cfg.AtomicProcess)

	var old uint64
	op := *wr // the callback's copy; wr itself must not escape
	n.env().At(t4, func(*simtime.Env) {
		rn.OpsDelivered++
		rn.obs.Add("rnic.atomic.executed", 1)
		var b [8]byte
		_ = rmr.ReadAt(op.RemoteOff, b[:])
		old = binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], op.AtomicNext(old))
		_ = rmr.WriteAt(op.RemoteOff, b[:])
	})

	back, ok := n.reg.fab.ReservePath(t4, dst, n.node, int64(cfg.WireHeader)+8)
	if !ok {
		n.timeout(t4, qp, ref, 0)
		return
	}
	t6 := n.rxPipe.Reserve(back, n.ackProcess())
	buf, mr, off, res := wr.LocalBuf, wr.LocalMR, wr.LocalOff, wr.AtomicResult
	n.env().At(t6, func(*simtime.Env) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], old)
		writeLocal(buf, mr, off, b[:])
		if res != nil {
			*res = old
		}
	})
	n.completeSend(t6, qp, ref, StatusOK)
}
