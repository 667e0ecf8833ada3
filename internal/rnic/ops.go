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
	n.dispatch(at, qp, wr)
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
// CQE of its own, is reported by the next signaled READ.
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
	qp.chain.begin()
	for k := range wrs {
		n.dispatch(at, qp, wrs[k])
	}
	qp.chain.on = false
	return nil
}

// dispatch routes one validated work request into the NIC pipelines.
func (n *NIC) dispatch(at simtime.Time, qp *QP, wr WR) {
	n.OpsPosted++
	if wr.Inline {
		n.obs.Add("rnic.inline_wqes", 1)
	}
	switch wr.Kind {
	case OpWrite, OpWriteImm:
		n.postWrite(at, qp, wr)
	case OpRead:
		n.postRead(at, qp, wr)
	case OpSend:
		if qp.typ == UD {
			n.postSendUD(at, qp, wr)
		} else {
			n.postSendRC(at, qp, wr)
		}
	case OpFetchAdd, OpCmpSwap, OpMaskFetchAdd, OpMaskCmpSwap:
		n.postAtomic(at, qp, wr)
	}
}

func (n *NIC) validate(qp *QP, wr *WR) error {
	if qp.typ == RC && !qp.conn {
		return ErrBadQPState
	}
	if qp.typ == UD && wr.Kind != OpSend {
		return ErrUDOneSided
	}
	switch wr.Kind {
	case OpWrite, OpWriteImm, OpRead, OpSend:
	case OpFetchAdd, OpCmpSwap, OpMaskFetchAdd, OpMaskCmpSwap:
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
func (n *NIC) localCost(wr WR) simtime.Time {
	if wr.Inline || wr.LocalBuf != nil || wr.LocalMR == nil || wr.Len == 0 {
		return 0
	}
	return n.mrAccessCost(wr.LocalMR, wr.LocalOff, wr.Len)
}

// txSchedule books the transmit-side pipeline stages of an outbound
// request: WQE processing in the tx pipe, then the payload DMA read.
// Inline WQEs process faster (no WQE fetch from the host send queue)
// and skip the DMA stage entirely, so t1 == t2 and no tx_dma span is
// ever recorded for them.
func (n *NIC) txSchedule(at simtime.Time, qp *QP, wr WR) (t1, t2 simtime.Time) {
	cfg := n.cfg()
	proc := cfg.NICProcess
	if wr.Inline {
		proc = cfg.NICInlineProcess
	}
	t1 = n.txPipe.Reserve(at, proc+n.qpCost(qp.qpn)+n.localCost(wr))
	if wr.Inline {
		return t1, t1
	}
	return t1, n.dma.Reserve(t1, params.TransferTime(wr.Len, cfg.DMABandwidth))
}

// writeLocal scatters result bytes into a request's local buffer. It
// takes the three local fields, not the WR, so a completion callback
// captures those and the ~200-byte request stays off the heap.
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
func (n *NIC) peer(node int) *NIC       { return n.reg.nics[node] }
func (n *NIC) ackProcess() simtime.Time { return n.cfg().NICProcess / 2 }

// completeSend pushes a send-side completion at time t if requested.
func (n *NIC) completeSend(t simtime.Time, qp *QP, wr WR, st Status) {
	// Failure accounting happens regardless of signaling, so chaos
	// runs can report losses that produced no visible completion.
	switch st {
	case StatusTimeout:
		n.obs.Add("rnic.timeouts", 1)
	case StatusRNRExceeded:
		n.obs.Add("rnic.rnr_exhausted", 1)
	}
	if !wr.Signaled {
		return
	}
	cqe := CQE{WRID: wr.WRID, QPN: qp.qpn, Kind: wr.Kind, Status: st, Len: wr.Len}
	n.env().At(t, func(e *simtime.Env) { qp.sendCQ.Push(e, cqe) })
}

// failAfterTimeout completes the request in error after the RC
// transport timeout. Used when the destination is unreachable.
func (n *NIC) failAfterTimeout(at simtime.Time, qp *QP, wr WR) {
	t := at + n.cfg().RCTimeout
	if qp.chain.on {
		t, _ = qp.chain.complete(t, wr.Signaled, StatusTimeout)
	}
	n.completeSend(t, qp, wr, StatusTimeout)
}

// snapshot reads the gather buffer at post time (the host buffer must
// stay stable until completion, as with real RDMA).
func snapshot(wr WR) []byte {
	if wr.Len == 0 {
		return nil
	}
	buf := make([]byte, wr.Len)
	if wr.LocalBuf != nil {
		copy(buf, wr.LocalBuf[:wr.Len])
		return buf
	}
	if wr.LocalMR == nil {
		return nil
	}
	if err := wr.LocalMR.ReadAt(wr.LocalOff, buf); err != nil {
		return nil
	}
	return buf
}

// postWrite implements one-sided RDMA write and write-with-immediate.
func (n *NIC) postWrite(at simtime.Time, qp *QP, wr WR) {
	cfg := n.cfg()
	t1, t2 := n.txSchedule(at, qp, wr)
	payload := snapshot(wr)

	dst := qp.remoteNode
	t3, ok := n.reg.fab.ReservePath(t2, n.node, dst, wr.Len+int64(cfg.WireHeader))
	rn := n.peer(dst)
	if !ok || rn == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	rqp := rn.qps[qp.remoteQPN]
	if rqp == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	rmr, found := rn.mrs[wr.RemoteKey]
	if !found {
		n.nack(t3, rn, qp, wr, StatusBadKey)
		return
	}
	if rmr.perm&PermWrite == 0 {
		n.nack(t3, rn, qp, wr, StatusAccessError)
		return
	}
	if rmr.checkRange(wr.RemoteOff, wr.Len) != nil {
		n.nack(t3, rn, qp, wr, StatusLengthError)
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, wr.Len))
	t5 := rn.dma.Reserve(t4, params.TransferTime(wr.Len, cfg.DMABandwidth))

	// Pipeline spans: the NIC computes its whole timeline up front, so
	// the stages are recorded as pre-computed intervals hanging off the
	// caller's span (carried in-simulation on the WR — never on the
	// wire, so tracing cannot change message sizes or timing).
	if wr.Trace != nil {
		n.obs.AddSpan(at, t1, "rnic.tx", wr.Trace)
		if !wr.Inline {
			n.obs.AddSpan(t1, t2, "rnic.tx_dma", wr.Trace)
		}
		n.obs.AddSpan(t2, t3, "fabric.wire", wr.Trace)
		rn.obs.AddSpan(t3, t4, "rnic.rx", wr.Trace)
		rn.obs.AddSpan(t4, t5, "rnic.rx_dma", wr.Trace)
	}

	if wr.Kind == OpWriteImm {
		// The immediate consumes a posted receive at the target; retry
		// on receiver-not-ready, failing after RNRRetryMax attempts.
		n.deliverImm(t5, rn, rqp, qp, wr, payload, rmr, 0)
		return
	}
	n.env().At(t5, func(*simtime.Env) {
		rn.OpsDeliverd++
		_ = rmr.WriteAt(wr.RemoteOff, payload)
	})
	n.ackBack(t5, dst, qp, wr, StatusOK)
}

// deliverImm commits a write-imm at the target: writes the payload,
// consumes one posted receive for the immediate, and pushes a receive
// completion. On receiver-not-ready it retries.
func (n *NIC) deliverImm(t simtime.Time, rn *NIC, rqp *QP, qp *QP, wr WR, payload []byte, rmr *MR, attempt int) {
	cfg := n.cfg()
	n.env().At(t, func(e *simtime.Env) {
		if _, ok := rqp.popRecv(); !ok {
			if attempt >= cfg.RNRRetryMax {
				n.completeSend(e.Now(), qp, wr, StatusRNRExceeded)
				return
			}
			n.deliverImm(e.Now()+cfg.RNRRetryDelay, rn, rqp, qp, wr, payload, rmr, attempt+1)
			return
		}
		rn.OpsDeliverd++
		if len(payload) > 0 {
			_ = rmr.WriteAt(wr.RemoteOff, payload)
		}
		rqp.recvCQ.Push(e, CQE{
			QPN:     rqp.qpn,
			Kind:    OpWriteImm,
			Status:  StatusOK,
			Imm:     wr.Imm,
			HasImm:  true,
			Len:     wr.Len,
			SrcNode: n.node,
			SrcQPN:  qp.qpn,
		})
		n.ackBack(e.Now(), rn.node, qp, wr, StatusOK)
	})
}

// nack completes the request in error after a negative ack round trip.
func (n *NIC) nack(t simtime.Time, rn *NIC, qp *QP, wr WR, st Status) {
	// Error detected at remote rx pipeline; small processing then nack.
	cfg := n.cfg()
	t4 := rn.rxPipe.Reserve(t, cfg.NICProcess)
	back, ok := n.reg.fab.ReservePath(t4, rn.node, n.node, int64(cfg.AckBytes))
	if !ok {
		n.failAfterTimeout(t, qp, wr)
		return
	}
	t6 := n.rxPipe.Reserve(back, n.ackProcess())
	if qp.chain.on {
		t6 = notBefore(&qp.chain.done, t6)
	}
	// Errors are always reported, signaled or not.
	cqe := CQE{WRID: wr.WRID, QPN: qp.qpn, Kind: wr.Kind, Status: st, Len: wr.Len}
	n.env().At(t6, func(e *simtime.Env) { qp.sendCQ.Push(e, cqe) })
}

// ackBack schedules the RC acknowledgment and the sender completion.
func (n *NIC) ackBack(t simtime.Time, dst int, qp *QP, wr WR, st Status) {
	cfg := n.cfg()
	back, ok := n.reg.fab.ReservePath(t, dst, n.node, int64(cfg.AckBytes))
	if !ok {
		n.failAfterTimeout(t, qp, wr)
		return
	}
	t6 := n.rxPipe.Reserve(back, n.ackProcess())
	n.completeSend(t6, qp, wr, st)
}

// postRead implements one-sided RDMA read.
func (n *NIC) postRead(at simtime.Time, qp *QP, wr WR) {
	cfg := n.cfg()
	t1 := n.txPipe.Reserve(at, cfg.NICProcess+n.qpCost(qp.qpn)+n.localCost(wr))

	dst := qp.remoteNode
	t3, ok := n.reg.fab.ReservePath(t1, n.node, dst, int64(cfg.WireHeader))
	rn := n.peer(dst)
	if !ok || rn == nil || rn.qps[qp.remoteQPN] == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	rmr, found := rn.mrs[wr.RemoteKey]
	if !found {
		n.nack(t3, rn, qp, wr, StatusBadKey)
		return
	}
	if rmr.perm&PermRead == 0 {
		n.nack(t3, rn, qp, wr, StatusAccessError)
		return
	}
	if rmr.checkRange(wr.RemoteOff, wr.Len) != nil {
		n.nack(t3, rn, qp, wr, StatusLengthError)
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, wr.Len))
	t5 := rn.dma.Reserve(t4, params.TransferTime(wr.Len, cfg.DMABandwidth))
	if qp.chain.on {
		t5 = notBefore(&qp.chain.exec, t5)
	}

	// Snapshot the remote bytes at the instant the remote DMA reads them.
	data := make([]byte, wr.Len)
	remoteOff := wr.RemoteOff
	n.env().At(t5, func(*simtime.Env) {
		rn.OpsDeliverd++
		_ = rmr.ReadAt(remoteOff, data)
	})

	back, ok := n.reg.fab.ReservePath(t5, dst, n.node, wr.Len+int64(cfg.WireHeader))
	if !ok {
		n.failAfterTimeout(t5, qp, wr)
		return
	}
	t7 := n.rxPipe.Reserve(back, cfg.NICProcess)
	t8 := n.dma.Reserve(t7, params.TransferTime(wr.Len, cfg.DMABandwidth))
	if wr.Trace != nil {
		n.obs.AddSpan(at, t1, "rnic.tx", wr.Trace)
		n.obs.AddSpan(t1, t3, "fabric.wire", wr.Trace)
		rn.obs.AddSpan(t3, t4, "rnic.rx", wr.Trace)
		rn.obs.AddSpan(t4, t5, "rnic.rx_dma", wr.Trace)
		n.obs.AddSpan(t5, back, "fabric.wire", wr.Trace)
		n.obs.AddSpan(back, t7, "rnic.rx", wr.Trace)
		n.obs.AddSpan(t7, t8, "rnic.rx_dma", wr.Trace)
	}
	buf, mr, off := wr.LocalBuf, wr.LocalMR, wr.LocalOff
	n.env().At(t8, func(*simtime.Env) { writeLocal(buf, mr, off, data) })
	st := StatusOK
	if qp.chain.on {
		t8, st = qp.chain.complete(t8, wr.Signaled, st)
	}
	n.completeSend(t8, qp, wr, st)
}

// postSendRC implements two-sided send on a reliable connection.
func (n *NIC) postSendRC(at simtime.Time, qp *QP, wr WR) {
	cfg := n.cfg()
	_, t2 := n.txSchedule(at, qp, wr)
	payload := snapshot(wr)

	dst := qp.remoteNode
	t3, ok := n.reg.fab.ReservePath(t2, n.node, dst, wr.Len+int64(cfg.WireHeader))
	rn := n.peer(dst)
	if !ok || rn == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	rqp := rn.qps[qp.remoteQPN]
	if rqp == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN))
	n.deliverSend(t4, rn, rqp, qp, wr, payload, 0)
}

// deliverSend commits a two-sided send into a posted receive buffer,
// retrying on receiver-not-ready.
func (n *NIC) deliverSend(t simtime.Time, rn *NIC, rqp *QP, qp *QP, wr WR, payload []byte, attempt int) {
	cfg := n.cfg()
	n.env().At(t, func(e *simtime.Env) {
		recv, ok := rqp.popRecv()
		if !ok {
			if attempt >= cfg.RNRRetryMax {
				n.completeSend(e.Now(), qp, wr, StatusRNRExceeded)
				return
			}
			n.deliverSend(e.Now()+cfg.RNRRetryDelay, rn, rqp, qp, wr, payload, attempt+1)
			return
		}
		if recv.Len < wr.Len {
			// Message does not fit the posted buffer.
			rqp.recvCQ.Push(e, CQE{QPN: rqp.qpn, Kind: OpRecv, Status: StatusLengthError,
				SrcNode: n.node, SrcQPN: qp.qpn, RecvWRID: recv.WRID})
			n.ackBack(e.Now(), rn.node, qp, wr, StatusLengthError)
			return
		}
		// Receive-side DMA and translation of the receive buffer.
		cost := rn.mrAccessCost(recv.MR, recv.Off, wr.Len)
		t5 := rn.rxPipe.Reserve(e.Now(), cost)
		t6 := rn.dma.Reserve(t5, params.TransferTime(wr.Len, cfg.DMABandwidth))
		e.At(t6, func(e2 *simtime.Env) {
			rn.OpsDeliverd++
			_ = recv.MR.WriteAt(recv.Off, payload)
			rqp.recvCQ.Push(e2, CQE{
				QPN:      rqp.qpn,
				Kind:     OpRecv,
				Status:   StatusOK,
				Len:      wr.Len,
				SrcNode:  n.node,
				SrcQPN:   qp.qpn,
				RecvWRID: recv.WRID,
			})
		})
		n.ackBack(t6, rn.node, qp, wr, StatusOK)
	})
}

// postSendUD implements unreliable datagram send: fire and forget,
// dropped silently if the destination has no posted receive.
func (n *NIC) postSendUD(at simtime.Time, qp *QP, wr WR) {
	cfg := n.cfg()
	_, t2 := n.txSchedule(at, qp, wr)
	payload := snapshot(wr)

	// UD completes locally as soon as the datagram leaves the NIC.
	n.completeSend(t2, qp, wr, StatusOK)

	t3, ok := n.reg.fab.ReservePath(t2, n.node, wr.DestNode, wr.Len+int64(cfg.UDHeader))
	rn := n.peer(wr.DestNode)
	if !ok || rn == nil {
		return // lost on the wire; UD gives no feedback
	}
	rqp := rn.qps[wr.DestQPN]
	if rqp == nil || rqp.typ != UD {
		return
	}
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(wr.DestQPN))
	srcNode, srcQPN := n.node, qp.qpn
	n.env().At(t4, func(e *simtime.Env) {
		recv, ok := rqp.popRecv()
		if !ok || recv.Len < wr.Len {
			rqp.drops++
			return
		}
		t5 := rn.rxPipe.Reserve(e.Now(), rn.mrAccessCost(recv.MR, recv.Off, wr.Len))
		t6 := rn.dma.Reserve(t5, params.TransferTime(wr.Len, cfg.DMABandwidth))
		e.At(t6, func(e2 *simtime.Env) {
			rn.OpsDeliverd++
			_ = recv.MR.WriteAt(recv.Off, payload)
			rqp.recvCQ.Push(e2, CQE{
				QPN:      rqp.qpn,
				Kind:     OpRecv,
				Status:   StatusOK,
				Len:      wr.Len,
				SrcNode:  srcNode,
				SrcQPN:   srcQPN,
				RecvWRID: recv.WRID,
			})
		})
	})
}

// maskedAdd adds delta to val with carries confined by boundary: each
// set bit of boundary marks the most significant bit of an independent
// field, so the addition of one field never carries into the next.
// This is the ConnectX masked-fetch-add ("extended atomics") rule; a
// zero boundary degenerates to a plain 64-bit add.
func maskedAdd(val, delta, boundary uint64) uint64 {
	if boundary == 0 {
		return val + delta
	}
	var out uint64
	lo := uint(0)
	for bit := uint(0); bit < 64; bit++ {
		if boundary&(1<<bit) != 0 || bit == 63 {
			width := bit - lo + 1
			fieldMask := ^uint64(0)
			if width < 64 {
				fieldMask = (uint64(1)<<width - 1) << lo
			}
			sum := (val&fieldMask)>>lo + (delta&fieldMask)>>lo
			out |= sum << lo & fieldMask
			lo = bit + 1
		}
	}
	return out
}

// maskedCASNext returns the word after a masked compare-and-swap of
// old: if old matches cmp under cmpMask, the bits under swapMask are
// replaced from swp; otherwise the word is unchanged. Plain CAS is the
// degenerate case with both masks all-ones.
func maskedCASNext(old, cmp, swp, cmpMask, swapMask uint64) uint64 {
	if old&cmpMask != cmp&cmpMask {
		return old
	}
	return old&^swapMask | swp&swapMask
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
		return maskedCASNext(old, wr.Compare, wr.Swap, ^uint64(0), ^uint64(0))
	case OpMaskFetchAdd:
		return maskedAdd(old, wr.Add, wr.BoundaryMask)
	case OpMaskCmpSwap:
		return maskedCASNext(old, wr.Compare, wr.Swap, wr.CompareMask, wr.SwapMask)
	}
	return old
}

// atomicObs records the per-kind posting counter for an atomic verb.
func (n *NIC) atomicObs(kind OpKind) {
	switch kind {
	case OpFetchAdd:
		n.obs.Add("rnic.atomic.faa", 1)
	case OpCmpSwap:
		n.obs.Add("rnic.atomic.cas", 1)
	case OpMaskFetchAdd:
		n.obs.Add("rnic.atomic.masked_faa", 1)
	case OpMaskCmpSwap:
		n.obs.Add("rnic.atomic.masked_cas", 1)
	}
}

// postAtomic implements 8-byte masked atomics (fetch-add, cmp-swap and
// their masked variants) executed at the remote NIC in arrival order.
func (n *NIC) postAtomic(at simtime.Time, qp *QP, wr WR) {
	cfg := n.cfg()
	n.atomicObs(wr.Kind)
	t1 := n.txPipe.Reserve(at, cfg.NICProcess+n.qpCost(qp.qpn)+n.localCost(wr))

	dst := qp.remoteNode
	t3, ok := n.reg.fab.ReservePath(t1, n.node, dst, int64(cfg.WireHeader)+16)
	rn := n.peer(dst)
	if !ok || rn == nil || rn.qps[qp.remoteQPN] == nil {
		n.failAfterTimeout(at, qp, wr)
		return
	}
	rmr, found := rn.mrs[wr.RemoteKey]
	if !found {
		n.nack(t3, rn, qp, wr, StatusBadKey)
		return
	}
	if rmr.perm&PermAtomic == 0 {
		n.nack(t3, rn, qp, wr, StatusAccessError)
		return
	}
	if rmr.checkRange(wr.RemoteOff, 8) != nil {
		n.nack(t3, rn, qp, wr, StatusLengthError)
		return
	}
	// The remote rx pipeline is the atomicity serialization point: two
	// concurrent atomics to one address reserve it back to back, and
	// each read-modify-write executes whole at its reserved instant, so
	// the second always observes the first's result.
	t4 := rn.rxPipe.Reserve(t3, cfg.NICProcess+rn.qpCost(qp.remoteQPN)+rn.mrAccessCost(rmr, wr.RemoteOff, 8)+cfg.AtomicProcess)

	var old uint64
	n.env().At(t4, func(*simtime.Env) {
		rn.OpsDeliverd++
		rn.obs.Add("rnic.atomic.executed", 1)
		var b [8]byte
		_ = rmr.ReadAt(wr.RemoteOff, b[:])
		old = binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], wr.AtomicNext(old))
		_ = rmr.WriteAt(wr.RemoteOff, b[:])
	})

	back, ok := n.reg.fab.ReservePath(t4, dst, n.node, int64(cfg.WireHeader)+8)
	if !ok {
		n.failAfterTimeout(t4, qp, wr)
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
	n.completeSend(t6, qp, wr, StatusOK)
}
