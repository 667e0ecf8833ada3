package lite

import (
	"lite/internal/hostmem"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// part is one piece of an LMR access that falls in a single chunk.
type part struct {
	c      chunk
	cOff   int64 // offset within the chunk
	bufOff int64 // offset within the caller's buffer
	n      int64
}

// split decomposes an access [off, off+n) into per-chunk parts,
// appended to out: callers pass a small stack buffer (out[:0] of a
// [4]part), which holds the parts of any access that spans few chunks.
func split(out []part, ls *lmrState, off, n int64) ([]part, error) {
	if off < 0 || n < 0 || off+n > ls.size {
		return nil, ErrBounds
	}
	var base, bufOff int64
	remain := n
	for _, c := range ls.chunks {
		if remain == 0 {
			break
		}
		end := base + c.size
		if off < end {
			start := off - base
			if start < 0 {
				start = 0
			}
			take := c.size - start
			if take > remain {
				take = remain
			}
			out = append(out, part{c: c, cOff: start, bufOff: bufOff, n: take})
			bufOff += take
			off += take
			remain -= take
		}
		base = end
	}
	if remain != 0 {
		return nil, ErrBounds
	}
	return out, nil
}

func statusErr(s rnic.Status) error {
	switch s {
	case rnic.StatusOK:
		return nil
	case rnic.StatusTimeout:
		return ErrTimeout
	case rnic.StatusAccessError, rnic.StatusBadKey:
		return ErrPermission
	case statusDropped:
		return ErrNodeDead
	case rnic.StatusLengthError:
		return ErrBounds
	}
	return ErrRemoteFailed
}

// runParts implements LT_read (kind OpRead: into buf) and LT_write
// (OpWrite: from buf) of LMR space at off, per chunk: local pieces via
// memcpy, remote pieces as parallel native one-sided verbs against the
// target node's global physical MR — no remote CPU, kernel, or LITE
// involvement (§4). It waits for all completions, also after a piece
// fails, so every posted piece's send-queue slots come back.
//
// The handle is resolved before this thread yields (LITECheck, the QoS
// throttle, and each memcpy's own duration below), and an LT_free on
// another thread releases local chunks the moment it runs; every local
// arm therefore re-checks ls.freed after its last yield and before it
// touches memory that may already belong to someone else.
func (i *Instance) runParts(p *simtime.Proc, h LH, off int64, buf []byte, kind rnic.OpKind, pri Priority, ten uint16) error {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return err
	}
	if kind == rnic.OpRead && e.perm&PermRead == 0 || kind == rnic.OpWrite && e.perm&PermWrite == 0 {
		return ErrPermission
	}
	p.Work(i.cfg.LITECheck)
	ls := e.ls
	var partBuf [4]part
	parts, err := split(partBuf[:0], ls, off, int64(len(buf)))
	if err != nil {
		return err
	}
	var total int64
	for _, pt := range parts {
		if pt.c.node != i.node.ID {
			total += pt.n
		}
	}
	i.qos.throttle(p, pri, total)
	start := p.Now()

	var posted []oneSided
	for _, pt := range parts {
		seg := buf[pt.bufOff : pt.bufOff+pt.n]
		if pt.c.node != i.node.ID {
			var c oneSided
			c, err = i.postOneSided(p, pt.c.node, pri, []rnic.WR{{
				Kind:      kind,
				WRID:      i.wrID(),
				LocalBuf:  seg,
				Len:       pt.n,
				RemoteKey: i.dep.Instances[pt.c.node].globalMR.Key(),
				RemoteOff: int64(pt.c.pa) + pt.cOff,
				Trace:     procSpan(p),
			}})
			if err != nil {
				break
			}
			posted = append(posted, c)
			continue
		}
		// Local piece: direct physical access, one copy.
		i.memcpyCost(p, pt.n)
		if ls.freed {
			err = ErrFreed
			break
		}
		if kind == rnic.OpRead {
			err = i.node.Mem.Read(pt.c.pa+hostmem.PAddr(pt.cOff), seg)
		} else {
			err = i.node.Mem.Write(pt.c.pa+hostmem.PAddr(pt.cOff), seg)
		}
		if err != nil {
			break
		}
	}
	for _, c := range posted {
		if cerr := statusErr(i.awaitOneSided(p, c).Status); cerr != nil && err == nil {
			err = cerr
		}
	}
	if total > 0 {
		i.qos.record(p, pri, total, p.Now()-start)
	}
	return err
}

// oneSided is a one-sided chain posted or queued for its caller: its
// QP, its last (signaled) WR's WRID, and the slots it holds once posted.
type oneSided struct {
	sig   *qpSigState
	wrid  uint64
	slots int
}

// postOneSided posts wrs, all to dst and each with its WRID, under the
// outbox rule: the longest prefix that fits the picked QP's free slots,
// one slot per WR, behind one doorbell with only its last WR signaled;
// or, when the queue is full or the outbox holds chains, wrs[0] alone
// into the outbox. It returns the chain, for awaitOneSided; its slots
// say how many of wrs it covers.
func (i *Instance) postOneSided(p *simtime.Proc, dst int, pri Priority, wrs []rnic.WR) (oneSided, error) {
	sig := i.sharedQP(p, dst, pri)
	n := sig.sq.room(len(wrs))
	if n == 0 {
		c := outboxed{wrs: []rnic.WR{wrs[0]}, oneSide: true}
		c.wrs[0].Signaled = true
		i.enqueue(sig, c)
		return oneSided{sig, wrs[0].WRID, 1}, nil
	}
	wrs[n-1].Signaled = true
	return oneSided{sig, wrs[n-1].WRID, n}, i.post(p, sig, outboxed{wrs: wrs[:n], oneSide: true})
}

// awaitOneSided waits for c's completion, then returns its slots to
// the QP and serves the QP's outbox with them.
func (i *Instance) awaitOneSided(p *simtime.Proc, c oneSided) rnic.CQE {
	cqe := i.sendDisp.Wait(p, c.wrid)
	if cqe.Status != statusDropped {
		c.sig.sq.give(c.slots)
		i.serveOutbox(p, c.sig)
	}
	return cqe
}

// postAndWait is the one-sided round trip of rawAccess and rawAtomic:
// wr, with its WRID and remote key filled in, posted and waited for.
func (i *Instance) postAndWait(p *simtime.Proc, node int, pri Priority, wr rnic.WR) error {
	wr.WRID = i.wrID()
	wr.RemoteKey = i.dep.Instances[node].globalMR.Key()
	c, err := i.postOneSided(p, node, pri, []rnic.WR{wr})
	if err != nil {
		return err
	}
	return statusErr(i.awaitOneSided(p, c).Status)
}

// ReadSeg is one segment of a vectored LT_read: len(Buf) bytes of the
// LMR behind LH, starting at Off.
type ReadSeg struct {
	LH  LH
	Off int64
	Buf []byte
}

// readVInternal implements vectored LT_read. Every segment passes the
// same handle, permission and bounds checks as runParts before any
// byte moves, so a vector with a bad segment reads nothing. Local
// pieces are then served by memcpy, and remote pieces go out as WR
// chains in vector order: consecutive pieces on one node share a QP and
// one doorbell, and a chain completes before the next is posted. A
// vector that spans several remote nodes is therefore split per node,
// not rejected, and remote segments are always read in the order given
// — the responder NIC executes a chain in order (RC), which lets a
// caller validate one segment with a later one.
func (i *Instance) readVInternal(p *simtime.Proc, segs []ReadSeg, pri Priority, ten uint16) error {
	type localRead struct {
		ls  *lmrState
		pa  hostmem.PAddr
		buf []byte
	}
	var locals []localRead
	// The common vector is a handful of single-chunk segments: keep its
	// requests on the stack.
	var wrBuf [4]rnic.WR
	var nodeBuf [4]int
	wrs, nodes := wrBuf[:0], nodeBuf[:0] // nodes[k] is the target of wrs[k]
	var partBuf [4]part
	var total int64
	trace := procSpan(p)
	for _, s := range segs {
		e, err := i.lookupLH(s.LH, ten)
		if err != nil {
			return err
		}
		if e.perm&PermRead == 0 {
			return ErrPermission
		}
		p.Work(i.cfg.LITECheck)
		parts, err := split(partBuf[:0], e.ls, s.Off, int64(len(s.Buf)))
		if err != nil {
			return err
		}
		for _, pt := range parts {
			buf := s.Buf[pt.bufOff : pt.bufOff+pt.n]
			if pt.c.node == i.node.ID {
				locals = append(locals, localRead{e.ls, pt.c.pa + hostmem.PAddr(pt.cOff), buf})
				continue
			}
			total += pt.n
			nodes = append(nodes, pt.c.node)
			wrs = append(wrs, rnic.WR{
				Kind:      rnic.OpRead,
				WRID:      i.wrID(),
				LocalBuf:  buf,
				Len:       pt.n,
				RemoteKey: i.dep.Instances[pt.c.node].globalMR.Key(),
				RemoteOff: int64(pt.c.pa) + pt.cOff,
				Trace:     trace,
			})
		}
	}
	for _, l := range locals {
		i.memcpyCost(p, int64(len(l.buf)))
		if l.ls.freed {
			return ErrFreed // freed while this thread yielded; see runParts
		}
		if err := i.node.Mem.Read(l.pa, l.buf); err != nil {
			return err
		}
	}
	if len(wrs) == 0 {
		return nil
	}
	i.qos.throttle(p, pri, total)
	start := p.Now()
	var err error
	for len(wrs) > 0 && err == nil {
		var n int
		n, err = i.postReadChain(p, nodes, wrs, pri)
		wrs, nodes = wrs[n:], nodes[n:]
	}
	i.qos.record(p, pri, total, p.Now()-start)
	return err
}

// postReadChain posts the longest prefix of wrs that targets one node
// and fits the picked QP's free send-queue slots (postOneSided) behind
// one doorbell with only the last WR signaled, and waits for it. It
// returns the prefix length and the first error in chain order. RC
// completes in order, so once the last completion is in, an earlier
// member's error completion (they are delivered signaled or not) has
// arrived too: each is claimed here, never left in the dispatcher's
// stash.
func (i *Instance) postReadChain(p *simtime.Proc, nodes []int, wrs []rnic.WR, pri Priority) (int, error) {
	dst := nodes[0]
	run := 1
	for run < len(wrs) && nodes[run] == dst {
		run++
	}
	c, err := i.postOneSided(p, dst, pri, wrs[:run])
	if err != nil {
		return c.slots, err
	}
	last := i.awaitOneSided(p, c)
	for _, wr := range wrs[:c.slots-1] {
		if cqe, ok := i.sendDisp.TryClaim(wr.WRID); ok && err == nil {
			err = statusErr(cqe.Status)
		}
	}
	if err == nil {
		err = statusErr(last.Status)
	}
	return c.slots, err
}

// memsetInternal implements LT_memset by sending the command to the
// node that stores each affected chunk, which performs a local memset
// and replies — cheaper than shipping the pattern over the wire (§7.1).
func (i *Instance) memsetInternal(p *simtime.Proc, h LH, off int64, val byte, n int64, pri Priority, ten uint16) error {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return err
	}
	if e.perm&PermWrite == 0 {
		return ErrPermission
	}
	p.Work(i.cfg.LITECheck)
	var partBuf [4]part
	parts, err := split(partBuf[:0], e.ls, off, n)
	if err != nil {
		return err
	}
	for _, pt := range parts {
		if pt.c.node == i.node.ID {
			i.memcpyCost(p, pt.n)
			if e.ls.freed {
				return ErrFreed // freed while this thread yielded; see runParts
			}
			if err := memsetPhys(i, pt.c.pa+hostmem.PAddr(pt.cOff), val, pt.n); err != nil {
				return err
			}
			continue
		}
		if err := i.ctlMemset(p, pt.c.node, pt.c.pa+hostmem.PAddr(pt.cOff), val, pt.n, pri); err != nil {
			return err
		}
	}
	return nil
}

func memsetPhys(i *Instance, pa hostmem.PAddr, val byte, n int64) error {
	buf := make([]byte, n)
	if val != 0 {
		for k := range buf {
			buf[k] = val
		}
	}
	return i.node.Mem.Write(pa, buf)
}

// memcpyInternal implements LT_memcpy and LT_memmove: LITE sends an
// RPC to the node storing the source; that node performs a local
// memcpy if the destination is co-located, or an LT_write to the
// destination node otherwise, then replies (§7.1).
func (i *Instance) memcpyInternal(p *simtime.Proc, dst LH, dstOff int64, src LH, srcOff int64, n int64, pri Priority, ten uint16) error {
	de, err := i.lookupLH(dst, ten)
	if err != nil {
		return err
	}
	se, err := i.lookupLH(src, ten)
	if err != nil {
		return err
	}
	if de.perm&PermWrite == 0 || se.perm&PermRead == 0 {
		return ErrPermission
	}
	p.Work(i.cfg.LITECheck)
	var sBuf, dBuf [4]part
	sparts, err := split(sBuf[:0], se.ls, srcOff, n)
	if err != nil {
		return err
	}
	dparts, err := split(dBuf[:0], de.ls, dstOff, n)
	if err != nil {
		return err
	}
	// Sub-split so each piece is contiguous on both sides.
	for _, piece := range alignParts(sparts, dparts) {
		sp, dp := piece.src, piece.dst
		if sp.c.node == i.node.ID {
			// Source is local: read here, write through the normal path.
			if err := i.copySegment(p, se.ls, de.ls, sp, dp, pri); err != nil {
				return err
			}
			continue
		}
		// Ship the command to the source node.
		if err := i.ctlMemcpy(p, sp.c.node,
			sp.c.pa+hostmem.PAddr(sp.cOff),
			dp.c.node, dp.c.pa+hostmem.PAddr(dp.cOff), piece.n, pri); err != nil {
			return err
		}
	}
	return nil
}

// alignedPiece pairs a source and destination part of equal length.
type alignedPiece struct {
	src, dst part
	n        int64
}

// alignParts zips two part lists covering the same total length into
// pieces contiguous on both sides.
func alignParts(src, dst []part) []alignedPiece {
	var out []alignedPiece
	si, di := 0, 0
	var sUsed, dUsed int64
	for si < len(src) && di < len(dst) {
		s, d := src[si], dst[di]
		n := s.n - sUsed
		if d.n-dUsed < n {
			n = d.n - dUsed
		}
		out = append(out, alignedPiece{
			src: part{c: s.c, cOff: s.cOff + sUsed, n: n},
			dst: part{c: d.c, cOff: d.cOff + dUsed, n: n},
			n:   n,
		})
		sUsed += n
		dUsed += n
		if sUsed == s.n {
			si++
			sUsed = 0
		}
		if dUsed == d.n {
			di++
			dUsed = 0
		}
	}
	return out
}

// copySegment copies one aligned piece of src into dst whose source
// chunk is local. Both local arms re-check for an LT_free that ran
// while this thread yielded (see runParts).
func (i *Instance) copySegment(p *simtime.Proc, src, dst *lmrState, sp, dp part, pri Priority) error {
	buf := make([]byte, sp.n)
	i.memcpyCost(p, sp.n)
	if src.freed {
		return ErrFreed
	}
	if err := i.node.Mem.Read(sp.c.pa+hostmem.PAddr(sp.cOff), buf); err != nil {
		return err
	}
	if dp.c.node == i.node.ID {
		i.memcpyCost(p, sp.n)
		if dst.freed {
			return ErrFreed
		}
		return i.node.Mem.Write(dp.c.pa+hostmem.PAddr(dp.cOff), buf)
	}
	return i.rawWrite(p, dp.c.node, dp.c.pa+hostmem.PAddr(dp.cOff), buf, pri)
}

// rawWrite performs a one-sided write of buf to a physical address on
// a node through the shared QPs.
func (i *Instance) rawWrite(p *simtime.Proc, node int, pa hostmem.PAddr, buf []byte, pri Priority) error {
	return i.rawAccess(p, rnic.OpWrite, node, pa, buf, pri)
}

// rawRead performs a one-sided read from a physical address on a node
// into buf.
func (i *Instance) rawRead(p *simtime.Proc, node int, pa hostmem.PAddr, buf []byte, pri Priority) error {
	return i.rawAccess(p, rnic.OpRead, node, pa, buf, pri)
}

// rawAccess is rawRead (kind OpRead) and rawWrite (OpWrite): a memcpy
// on the local node, else one signaled WR through postAndWait.
func (i *Instance) rawAccess(p *simtime.Proc, kind rnic.OpKind, node int, pa hostmem.PAddr, buf []byte, pri Priority) error {
	n := int64(len(buf))
	if node == i.node.ID {
		i.memcpyCost(p, n)
		if kind == rnic.OpRead {
			return i.node.Mem.Read(pa, buf)
		}
		return i.node.Mem.Write(pa, buf)
	}
	i.qos.throttle(p, pri, n)
	start := p.Now()
	err := i.postAndWait(p, node, pri, rnic.WR{Kind: kind, LocalBuf: buf, Len: n, RemoteOff: int64(pa)})
	i.qos.record(p, pri, n, p.Now()-start)
	return err
}

// copyChunk copies the contents of chunk c into dsts (which together
// cover c.size), used by LMR migration.
func (i *Instance) copyChunk(p *simtime.Proc, c chunk, dsts []chunk, scratch []byte, pri Priority) error {
	buf := scratch
	if int64(cap(scratch)) < c.size {
		buf = make([]byte, c.size)
	}
	buf = buf[:c.size]
	if err := i.rawRead(p, c.node, c.pa, buf, pri); err != nil {
		return err
	}
	var off int64
	for _, d := range dsts {
		if err := i.rawWrite(p, d.node, d.pa, buf[off:off+d.size], pri); err != nil {
			return err
		}
		off += d.size
	}
	return nil
}
