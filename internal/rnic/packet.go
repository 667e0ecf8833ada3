package rnic

import (
	"lite/internal/fifo"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// MTU packets. An RC message of at most one MTU is booked whole when it
// is posted: the source DMA engine, every link of its path and the
// sink's DMA engine, one stage after another. A longer
// message is a stream of MTU packets, each carrying its own WireHeader.
// Its first packet is booked at post time like a one-packet message;
// each later packet is released when the one before it starts on the
// source's egress link, and its release books it on the source DMA
// engine, on every link of its path and on the sink's DMA engine. So the
// stages overlap packet by packet, at most one packet of a stream waits
// for the wire, and another message's packets interleave with it.
//
// The first packet pays the message's header processing: the receive
// pipe, and the MR-key and PTE costs of the whole range. The commit,
// the completion and the ack follow the last packet's sink DMA. A
// READ's response reads the whole region at its first packet's source
// DMA, as a one-packet response does: the first bytes are read as the
// first packet leaves, as on hardware, and the rest at the same
// instant. (Hardware reads each packet's bytes as that packet leaves,
// so a write landing in between can tear a response; here it cannot.)
//
// RC keeps order on a QP in two directions. On the request direction,
// every WR posted behind a multi-packet WRITE or WRITE_IMM is held,
// with the payload its gather buffer held at post, until that message
// has released its last packet. On the response direction, a READ's
// response is held behind a multi-packet READ response, and then
// executes and completes no earlier than it. A message of one packet
// holds neither direction. A multi-packet READ keeps sendChain's rules
// across the instants it ends at: the READs of its chain behind it
// execute and complete after it, and the next signaled one reports an
// unsignaled member's failure, which has no CQE of its own. So does a
// multi-packet WRITE or WRITE_IMM that loses a packet, to the next
// signaled member of its chain.
//
// UD datagrams are one packet on real hardware and are booked whole.

// lane is one direction of an RC QP's order: busy while a multi-packet
// message is releasing its packets, with what waits behind it.
type lane[T any] struct {
	busy bool
	held fifo.Queue[T]
}

func (l *lane[T]) blocked() bool { return l.busy || l.held.Len() > 0 }

// qpOrder is an RC QP's order in its two directions.
type qpOrder struct {
	req  lane[*heldWR] // WRs held behind a multi-packet WRITE or WRITE_IMM
	resp lane[*stream] // READ responses held behind a multi-packet one
}

// reqBlocked reports whether a multi-packet WRITE or WRITE_IMM holds
// the QP's request direction; respBlocked, whether a multi-packet READ
// response holds its response direction.
func (q *QP) reqBlocked() bool  { return q.order != nil && q.order.req.blocked() }
func (q *QP) respBlocked() bool { return q.order != nil && q.order.resp.blocked() }

// heldWR is a work request posted behind a multi-packet message on its
// QP's request direction: the request, the payload snapshot its gather
// buffer gave at post, its post instant, and the chain state of the
// PostSendList that posted it (chain.on is false for a PostSend).
type heldWR struct {
	wr      WR
	payload []byte
	at      simtime.Time
	chain   sendChain
}

// stream is one RC message on its way from the NIC whose DMA engine
// reads it (src) to the one whose DMA engine writes it (sink): a WRITE
// or WRITE_IMM from the requester, or a READ's response to it. For
// a multi-packet message it is also the event that releases the next
// packet.
type stream struct {
	n         *NIC // the requester: its QP orders the stream and completes it
	qp        *QP
	src, sink *NIC
	kind      OpKind
	ref       wrRef
	left      int64        // payload bytes not yet released
	rxFrom    simtime.Time // end of the first packet's receive pipe: the sink DMAs no packet before it
	multi     bool         // more than one packet: it holds its QP's direction

	// WRITE and WRITE_IMM: where the payload lands.
	rqp     *QP
	rmr     *MR
	off     int64
	imm     uint32
	payload []byte

	// READ: the two deferred steps, the instant the responder may start
	// the response, and the instants before which the response may
	// neither execute nor complete (RC order on the QP). chain is the
	// doorbell of the PostSendList that posted it (0 for a PostSend),
	// and lost is set once a member of that chain up to this one has
	// failed unsignaled, without a CQE. A WRITE or WRITE_IMM keeps
	// chain, lost and doneFloor too, and completes no earlier than
	// doneFloor only when lost.
	read                 *readOp
	ready                simtime.Time
	execFloor, doneFloor simtime.Time
	chain                int64
	lost                 bool

	// Pipeline spans: the post, the end of the tx pipe, the READ
	// request's arrival, and the first packet's source DMA end and
	// arrival.
	trace  *obs.Span
	inline bool
	at, t1 simtime.Time
	reqAt  simtime.Time
	d0, a0 simtime.Time
}

// mtu is the largest payload in bytes one RC packet carries:
// InfiniBand's largest MTU, which the paper's testbed uses.
const mtu = 4096

// firstPacket returns the payload bytes of a message's first packet.
func firstPacket(size int64) int64 { return min(size, mtu) }

// respTail is what a READ response leaves for the responses behind it
// on its QP and for the later READs of its chain: they execute no
// earlier than exec and complete no earlier than done, and the chain's
// signaled ones report a lost member.
type respTail struct {
	exec, done simtime.Time
	chain      int64
	lost       bool
}

// tail returns the respTail of s, which executed at exec and ended at
// done.
func (s *stream) tail(exec, done simtime.Time) respTail {
	return respTail{exec: exec, done: done, chain: s.chain, lost: s.lost}
}

// join records the chain state of the PostSendList posting s, if any.
func (s *stream) join(c *sendChain) {
	if c.on {
		s.doneFloor, s.chain, s.lost = c.done, c.id, c.lost
	}
}

// follow orders s behind the response that left t.
func (s *stream) follow(t respTail) {
	s.execFloor, s.doneFloor = max(s.execFloor, t.exec), max(s.doneFloor, t.done)
	s.lost = s.lost || t.lost && s.chain != 0 && s.chain == t.chain
}

// follow orders the chain's later members behind a READ response of it
// that ended after the PostSendList returned.
func (c *sendChain) follow(t respTail) {
	if t.chain == 0 || t.chain != c.id {
		return
	}
	c.exec, c.done = max(c.exec, t.exec), max(c.done, t.done)
	c.lost = c.lost || t.lost
}

// dmaTime is the DMA engine's time to move size bytes.
func (n *NIC) dmaTime(size int64) simtime.Time {
	return params.TransferTime(size, n.cfg().DMABandwidth)
}

// carry books the first packet's sink DMA and, for a multi-packet
// message, starts releasing the rest when that packet starts on the
// egress (start), holding the QP's direction. It reports whether the
// message was a single packet, which the caller then finishes.
func (s *stream) carry(first int64, start simtime.Time) bool {
	if s.left == 0 {
		return true
	}
	s.multi = true
	s.sink.dma.Reserve(max(s.a0, s.rxFrom), s.n.dmaTime(first))
	if s.qp.order == nil {
		s.qp.order = &qpOrder{}
	}
	if s.kind == OpRead {
		s.qp.order.resp.busy = true
	} else {
		s.qp.order.req.busy = true
	}
	s.n.env().Schedule(start, s)
	return false
}

// Fire releases the stream's next packet.
func (s *stream) Fire(e *simtime.Env) {
	n, cfg := s.n, s.n.cfg()
	k := min(s.left, mtu)
	s.left -= k
	d := s.src.dma.Reserve(e.Now(), n.dmaTime(k))
	// The packet before this one, a full one, started on the egress now.
	prev := e.Now() + params.TransferTime(mtu+int64(cfg.WireHeader), cfg.LinkBandwidth)
	start, a, ok := n.reg.fab.ReservePacket(d, s.src.node, s.sink.node, k+int64(cfg.WireHeader), prev)
	if !ok {
		s.fail(e.Now(), d)
		return
	}
	if s.left > 0 {
		s.sink.dma.Reserve(max(a, s.rxFrom), n.dmaTime(k))
		e.Schedule(start, s)
		return
	}
	s.finish(d, a, k)
}

// finish books the last packet (of k bytes, source DMA ending at d,
// arriving at a) into the sink and schedules what follows it: the
// commit, the ack and the completion.
func (s *stream) finish(d, a simtime.Time, k int64) {
	n, qp := s.n, s.qp
	if s.kind == OpRead {
		exec, done := s.finishRead(d, a, k)
		if s.multi {
			n.releaseResp(n.env().Now(), qp, s.tail(exec, done))
		}
	} else {
		s.finishWrite(d, a, k)
		if s.multi {
			n.releaseReq(n.env().Now(), qp, respTail{})
		}
	}
	n.streams.put(s)
}

// finishWrite commits a WRITE or WRITE_IMM after its last packet's sink
// DMA and acks it.
func (s *stream) finishWrite(d, a simtime.Time, k int64) {
	n, rn := s.n, s.sink
	t5 := rn.dma.Reserve(max(a, s.rxFrom), n.dmaTime(k))

	// Pipeline spans: the NIC computes each packet's timeline as it
	// books it, so the stages are recorded as intervals hanging off the
	// caller's span (carried in-simulation on the WR — never on the
	// wire, so tracing cannot change message sizes or timing). A
	// multi-packet message's spans run from its first packet to its
	// last.
	if s.trace != nil {
		n.obs.AddSpan(s.at, s.t1, "rnic.tx", s.trace)
		if !s.inline {
			n.obs.AddSpan(s.t1, d, "rnic.tx_dma", s.trace)
		}
		n.obs.AddSpan(s.d0, a, "fabric.wire", s.trace)
		rn.obs.AddSpan(s.a0, s.rxFrom, "rnic.rx", s.trace)
		rn.obs.AddSpan(s.rxFrom, t5, "rnic.rx_dma", s.trace)
	}
	if s.kind == OpWriteImm {
		// The immediate consumes a posted receive at the target; retry
		// on receiver-not-ready, failing after RNRRetryMax attempts.
		imm := n.imms.get()
		*imm = immDelivery{n: n, rn: rn, rqp: s.rqp, qp: s.qp, rmr: s.rmr, ref: s.ref, off: s.off, imm: s.imm, payload: s.payload,
			lost: s.lost, floor: s.doneFloor}
		n.env().Schedule(t5, imm)
		return
	}
	c := n.commits.get()
	*c = commit{n: n, rn: rn, rmr: s.rmr, off: s.off, payload: s.payload}
	n.env().Schedule(t5, c)
	n.ackBack(t5, rn.node, s.qp, s.ref, s.lost, s.doneFloor)
}

// finishRead lands a READ's last response packet, whose source DMA ends
// at d: the requester scatters the data after its sink DMA, and the
// READ completes. It returns the execution and
// completion instants, which the READs behind it on the QP follow.
func (s *stream) finishRead(d, a simtime.Time, k int64) (exec, done simtime.Time) {
	n, rn, qp, r := s.n, s.src, s.qp, s.read
	t8 := n.dma.Reserve(max(a, s.rxFrom), n.dmaTime(k))
	if s.trace != nil {
		n.obs.AddSpan(s.at, s.t1, "rnic.tx", s.trace)
		n.obs.AddSpan(s.t1, s.reqAt, "fabric.wire", s.trace)
		rn.obs.AddSpan(s.reqAt, s.ready, "rnic.rx", s.trace)
		rn.obs.AddSpan(s.ready, d, "rnic.rx_dma", s.trace)
		n.obs.AddSpan(s.d0, a, "fabric.wire", s.trace)
		n.obs.AddSpan(s.a0, s.rxFrom, "rnic.rx", s.trace)
		n.obs.AddSpan(s.rxFrom, t8, "rnic.rx_dma", s.trace)
	}
	n.env().Schedule(t8, r)
	st := StatusOK
	if s.lost && s.ref.signaled {
		st = StatusTimeout
	}
	if qp.chain.on {
		t8, st = qp.chain.complete(t8, s.ref.signaled, st)
	}
	t8 = max(t8, s.doneFloor)
	n.completeSend(t8, qp, s.ref, st)
	return d, t8
}

// respond starts a READ's response at the responder at time at: it
// books the first packet and, for a one-packet response, finishes it.
// It reports whether the response ended here, failed or completed,
// and if so what it leaves for the responses behind it; a multi-packet
// response ends at its last packet instead.
func (n *NIC) respond(s *stream, at simtime.Time) (respTail, bool) {
	cfg := n.cfg()
	rn, qp, r := s.src, s.qp, s.read
	first := firstPacket(r.len)
	s.left = r.len - first
	d0 := rn.dma.Reserve(at, n.dmaTime(first))
	if qp.chain.on {
		d0 = notBefore(&qp.chain.exec, d0)
	}
	d0 = max(d0, s.execFloor)
	// Snapshot the remote bytes as the first packet's DMA reads them.
	n.env().Schedule(d0, r)
	start, back, ok := n.reg.fab.ReservePacket(d0, rn.node, n.node, first+int64(cfg.WireHeader), 0)
	if !ok {
		r.abandon()
		t := s.timeout(d0)
		n.streams.put(s)
		return t, true
	}
	s.d0, s.a0 = d0, back
	s.rxFrom = n.rxPipe.Reserve(back, cfg.NICProcess)
	if !s.carry(first, start) {
		return respTail{}, false
	}
	t := s.tail(s.finishRead(d0, back, first))
	n.streams.put(s)
	return t, true
}

// timeout fails s's WR after the RC transport timeout from lost, the
// instant one of its packets was dropped or found its path down, and
// returns what it leaves for the messages behind it. A READ's failure
// completes no earlier than the READs before it on its QP, and an
// unsignaled one's, which has no CQE, marks its chain lost.
func (s *stream) timeout(lost simtime.Time) respTail {
	s.lost = s.lost || !s.ref.signaled
	return s.tail(lost, s.n.timeout(lost, s.qp, s.ref, s.doneFloor))
}

// fail ends, at time now, a multi-packet stream whose packet handed to
// the fabric at lost was dropped or found its path down: no later packet
// of it is released, the messages held behind it go on from now, and
// the WR fails after the RC transport timeout from lost.
func (s *stream) fail(now, lost simtime.Time) {
	n, qp := s.n, s.qp
	t := s.timeout(lost)
	if s.kind == OpRead {
		s.read.abandon()
		n.releaseResp(now, qp, t)
	} else {
		n.reg.bufs.put(s.payload)
		n.releaseReq(now, qp, t)
	}
	n.streams.put(s)
}

// releaseReq ends the multi-packet message on qp's request direction at
// time now, which left prev, and dispatches the WRs held behind it, in
// post order, until one of them is a multi-packet message itself. A WR
// that a PostSendList posted runs under its chain's rules again, and
// learns of a member of its chain that prev lost.
func (n *NIC) releaseReq(now simtime.Time, qp *QP, prev respTail) {
	l := &qp.order.req
	l.busy = false
	qp.chain.follow(prev)
	for !l.busy {
		h, ok := l.held.Pop()
		if !ok {
			return
		}
		if h.wr.Trace != nil {
			n.obs.AddSpan(h.at, now, "rnic.tx", h.wr.Trace)
		}
		if h.chain.on && qp.chain.id != h.chain.id {
			qp.chain = h.chain
			qp.chain.follow(prev)
		}
		qp.chain.on = h.chain.on
		n.dispatch(now, qp, &h.wr, h.payload)
		qp.chain.on = false
		n.helds.put(h)
	}
}

// releaseResp ends the multi-packet READ response on qp's response
// direction at time now, which left prev, and starts the responses held
// behind it, in order, until one of them is a multi-packet response
// itself. Each follows the one before it. Once the direction is free,
// the later READs of the last response's chain follow it too.
func (n *NIC) releaseResp(now simtime.Time, qp *QP, prev respTail) {
	l := &qp.order.resp
	l.busy = false
	for !l.busy {
		s, ok := l.held.Pop()
		if !ok {
			qp.chain.follow(prev)
			return
		}
		s.follow(prev)
		if t, ended := n.respond(s, max(now, s.ready)); ended {
			prev = t
		}
	}
}
