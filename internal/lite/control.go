package lite

import (
	"encoding/binary"

	"lite/internal/hostmem"
	"lite/internal/simtime"
)

// Control-plane operation codes carried over the funcControl binding.
const (
	copBind byte = iota + 1
	copAllocChunk
	copFreeChunk
	copRegName
	copUnregName
	copLookupName
	copMapReq
	copUnmapNotify
	copInvalidate
	copMemset
	copMemcpy
	copPing       // keepalive probe, answered by the poller (handleRPCReq); reply carries the node's epoch
	copMembership // manager -> node membership (epoch, dead set, moves) push
	copJoin       // restarted node -> manager rejoin announcement
	copMigPrepare // source -> manager: record the handoff {src, fn} -> target
	copMigState   // source -> target: dedup windows + application payload
	copMigCommit  // source -> manager: commit the move (linearization point)
	copMigAbort   // source -> manager: clear the handoff record
)

// Control-plane status codes.
const (
	cstOK byte = iota
	cstError
	cstNameTaken
	cstNoSuchName
	cstPermission
	cstNoMemory
	cstBadArg
	cstBusy  // migration admission: target already receiving this fn
	cstMoved // migration route: fn left the target for another node
)

// cstErrs is the error each status code stands for. cstOK is success;
// cstError, cstBadArg and unknown codes read as ErrRemoteFailed.
var cstErrs = [...]error{
	cstNameTaken:  ErrNameTaken,
	cstNoSuchName: ErrNoSuchName,
	cstPermission: ErrPermission,
	cstNoMemory:   hostmem.ErrOutOfMemory,
	cstBusy:       ErrMigrating,
	cstMoved:      ErrMoved,
}

func cstToErr(b byte) error {
	if b == cstOK {
		return nil
	}
	if int(b) < len(cstErrs) && cstErrs[b] != nil {
		return cstErrs[b]
	}
	return ErrRemoteFailed
}

func errToCst(err error) byte {
	if err == nil {
		return cstOK
	}
	if err == hostmem.ErrNoContiguous {
		err = hostmem.ErrOutOfMemory
	}
	for b, e := range cstErrs {
		if e == err {
			return byte(b)
		}
	}
	return cstError
}

// wire builds a control message: each method appends one
// little-endian field.
type wire []byte

func (w wire) u16(v uint16) wire { return binary.LittleEndian.AppendUint16(w, v) }
func (w wire) u32(v uint32) wire { return binary.LittleEndian.AppendUint32(w, v) }
func (w wire) u64(v uint64) wire { return binary.LittleEndian.AppendUint64(w, v) }

// wireReader reads a control message's fields in order. A read past
// the end yields zeros and marks the message short.
type wireReader struct {
	b     []byte
	short bool
}

func (r *wireReader) next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.short, r.b = true, nil
		return make([]byte, min(max(n, 0), 8))
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) u16() int    { return int(binary.LittleEndian.Uint16(r.next(2))) }
func (r *wireReader) u32() int    { return int(binary.LittleEndian.Uint32(r.next(4))) }
func (r *wireReader) u64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

// ctl sends a control request and returns the response payload.
func (i *Instance) ctl(p *simtime.Proc, dst int, req []byte, maxReply int64, pri Priority) ([]byte, error) {
	out, err := i.rpc(p, &rpcCall{dst: dst, fn: funcControl, input: req, maxReply: maxReply + 1, pri: pri, timeout: i.opts.RPCTimeout})
	if err != nil {
		return nil, err
	}
	if len(out) < 1 {
		return nil, ErrRemoteFailed
	}
	if err := cstToErr(out[0]); err != nil {
		return nil, err
	}
	return out[1:], nil
}

// ctlBind negotiates a ring for (dst, fn) and returns its address,
// size, and the serving instance's boot count — the incarnation stamp
// retried calls carry so the server can detect retries that crossed
// its own restart.
func (i *Instance) ctlBind(p *simtime.Proc, dst, fn int, pri Priority) (hostmem.PAddr, int64, uint64, error) {
	out, err := i.ctl(p, dst, wire{copBind}.u32(uint32(fn)), 24, pri)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(out) < 24 {
		return 0, 0, 0, ErrRemoteFailed
	}
	return hostmem.PAddr(binary.LittleEndian.Uint64(out[0:])), int64(binary.LittleEndian.Uint64(out[8:])),
		binary.LittleEndian.Uint64(out[16:]), nil
}

func (i *Instance) ctlAllocChunk(p *simtime.Proc, dst int, size int64, pri Priority) (hostmem.PAddr, error) {
	out, err := i.ctl(p, dst, wire{copAllocChunk}.u64(uint64(size)), 8, pri)
	if err != nil {
		return 0, err
	}
	return hostmem.PAddr(binary.LittleEndian.Uint64(out)), nil
}

func (i *Instance) ctlFreeChunk(p *simtime.Proc, dst int, pa hostmem.PAddr, size int64, pri Priority) error {
	_, err := i.ctl(p, dst, wire{copFreeChunk}.u64(uint64(pa)).u64(uint64(size)), 0, pri)
	return err
}

func (i *Instance) ctlRegName(p *simtime.Proc, ls *lmrState, pri Priority) error {
	_, err := i.ctl(p, managerNode, append(wire{copRegName}.u64(ls.id), ls.name...), 0, pri)
	return err
}

func (i *Instance) ctlUnregName(p *simtime.Proc, name string, pri Priority) error {
	req := append([]byte{copUnregName}, name...)
	_, err := i.ctl(p, managerNode, req, 0, pri)
	return err
}

func (i *Instance) ctlLookupName(p *simtime.Proc, name string, pri Priority) (uint64, error) {
	req := append([]byte{copLookupName}, name...)
	out, err := i.ctl(p, managerNode, req, 8, pri)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(out), nil
}

func (i *Instance) ctlMapRequest(p *simtime.Proc, master int, lmrID uint64, pri Priority) (Perm, error) {
	out, err := i.ctl(p, master, wire{copMapReq}.u64(lmrID), 1, pri)
	if err != nil {
		return 0, err
	}
	return Perm(out[0]), nil
}

func (i *Instance) ctlUnmapNotify(p *simtime.Proc, master int, lmrID uint64, pri Priority) error {
	_, err := i.ctl(p, master, wire{copUnmapNotify}.u64(lmrID), 0, pri)
	return err
}

func (i *Instance) ctlInvalidate(p *simtime.Proc, node int, lmrID uint64, pri Priority) error {
	_, err := i.ctl(p, node, wire{copInvalidate}.u64(lmrID), 0, pri)
	return err
}

func (i *Instance) ctlMemset(p *simtime.Proc, dst int, pa hostmem.PAddr, val byte, n int64, pri Priority) error {
	_, err := i.ctl(p, dst, append(wire{copMemset}.u64(uint64(pa)).u64(uint64(n)), val), 0, pri)
	return err
}

func (i *Instance) ctlMemcpy(p *simtime.Proc, srcNode int, srcPA hostmem.PAddr, dstNode int, dstPA hostmem.PAddr, n int64, pri Priority) error {
	req := wire{copMemcpy}.u64(uint64(srcPA)).u64(uint64(n)).u32(uint32(dstNode)).u64(uint64(dstPA))
	_, err := i.ctl(p, srcNode, req, 0, pri)
	return err
}

// handleControl executes control-plane requests on the serving node.
func (i *Instance) handleControl(p *simtime.Proc, c *Call) {
	reply := func(status byte, payload []byte) {
		_ = i.replyRPCInternal(p, c, append([]byte{status}, payload...), PriHigh)
	}
	in := c.Input
	if len(in) < 1 {
		reply(cstBadArg, nil)
		return
	}
	switch in[0] {
	case copBind:
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		key := bindKey{c.Src, fn}
		ring := i.ringFrom(c.Src, fn)
		if ring == nil {
			if validateRingBytes(i.opts.RingBytes) != nil {
				// A ring the IMM offset encoding cannot address must
				// never go live; the client surfaces a setup error.
				reply(cstBadArg, nil)
				return
			}
			pa, err := i.node.Mem.AllocContiguous(i.opts.RingBytes)
			if err != nil {
				reply(errToCst(err), nil)
				return
			}
			// The ring is stamped with this incarnation's boot count:
			// its dedup window can only vouch for calls first posted to
			// this incarnation.
			ring = &srvRing{client: c.Src, fn: fn, pa: pa, size: i.opts.RingBytes, credit: newRingServer(i.opts.RingBytes), boot: i.boots}
			if w, ok := i.adopted[key]; ok {
				// A migration shipped this client's dedup window ahead
				// of the binding; the fresh ring inherits the history
				// and the boot lineage it vouches for.
				ring.adoptedBoots = w.boots
				ring.dedup = w.dedup
				delete(i.adopted, key)
			}
			i.rings.slot(c.Src, fn).ring = ring
		} else {
			// Re-bind after a failure: the client restarts its tail at
			// zero, so reset the consume pointer to match. Frames the
			// old incarnation left unconsumed are dropped (their
			// callers have already timed out or failed over). The dedup
			// window and its boot stamp survive — the server did not
			// restart, so its duplicate-suppression history is intact.
			ring.credit.reset()
		}
		reply(cstOK, wire{}.u64(uint64(ring.pa)).u64(uint64(ring.size)).u64(ring.boot))

	case copAllocChunk:
		size := int64(binary.LittleEndian.Uint64(in[1:]))
		pa, err := i.node.Mem.AllocContiguous(size)
		if err != nil {
			reply(errToCst(err), nil)
			return
		}
		p.Work(simtime.Time((size+i.cfg.PageSize-1)/i.cfg.PageSize) * i.cfg.PageAllocPerPage)
		reply(cstOK, wire{}.u64(uint64(pa)))

	case copFreeChunk:
		pa := hostmem.PAddr(binary.LittleEndian.Uint64(in[1:]))
		size := int64(binary.LittleEndian.Uint64(in[9:]))
		reply(errToCst(i.node.Mem.Free(pa, size)), nil)

	case copRegName:
		id := binary.LittleEndian.Uint64(in[1:])
		name := string(in[9:])
		if i.node.ID != managerNode {
			reply(cstBadArg, nil)
			return
		}
		if _, taken := i.dep.directory[name]; taken {
			reply(cstNameTaken, nil)
			return
		}
		ls := i.dep.lmrByID(id)
		if ls == nil {
			reply(cstError, nil)
			return
		}
		i.dep.directory[name] = ls
		reply(cstOK, nil)

	case copUnregName:
		delete(i.dep.directory, string(in[1:]))
		reply(cstOK, nil)

	case copLookupName:
		ls, ok := i.dep.directory[string(in[1:])]
		if !ok {
			reply(cstNoSuchName, nil)
			return
		}
		reply(cstOK, wire{}.u64(ls.id))

	case copMapReq:
		id := binary.LittleEndian.Uint64(in[1:])
		ls := i.dep.lmrByID(id)
		if ls == nil || ls.freed {
			reply(cstNoSuchName, nil)
			return
		}
		if !ls.masters[i.node.ID] {
			reply(cstPermission, nil)
			return
		}
		g := grantFor(ls, c.Src)
		if g == 0 {
			reply(cstPermission, nil)
			return
		}
		ls.mappedBy[c.Src] = true
		reply(cstOK, []byte{byte(g)})

	case copUnmapNotify:
		id := binary.LittleEndian.Uint64(in[1:])
		if ls := i.dep.lmrByID(id); ls != nil {
			delete(ls.mappedBy, c.Src)
			ls.mappedBy[i.node.ID] = true // master keeps its own entry
		}
		reply(cstOK, nil)

	case copInvalidate:
		id := binary.LittleEndian.Uint64(in[1:])
		// Drop any local lhs pointing at the freed LMR.
		for h, e := range i.lhs {
			if e != nil && e.ls.id == id {
				i.lhs[h] = nil
			}
		}
		reply(cstOK, nil)

	case copMemset:
		pa := hostmem.PAddr(binary.LittleEndian.Uint64(in[1:]))
		n := int64(binary.LittleEndian.Uint64(in[9:]))
		val := in[17]
		i.memcpyCost(p, n)
		reply(errToCst(memsetPhys(i, pa, val, n)), nil)

	case copMemcpy:
		srcPA := hostmem.PAddr(binary.LittleEndian.Uint64(in[1:]))
		n := int64(binary.LittleEndian.Uint64(in[9:]))
		dstNode := int(binary.LittleEndian.Uint32(in[17:]))
		dstPA := hostmem.PAddr(binary.LittleEndian.Uint64(in[21:]))
		buf := make([]byte, n)
		i.memcpyCost(p, n)
		if err := i.node.Mem.Read(srcPA, buf); err != nil {
			reply(errToCst(err), nil)
			return
		}
		reply(errToCst(i.rawWrite(p, dstNode, dstPA, buf, PriHigh)), nil)

	case copMembership:
		r := wireReader{b: in[1:]}
		epoch := r.u64()
		dead := make([]int, r.u16())
		for k := range dead {
			dead[k] = r.u32()
		}
		moves := make([]moveRec, r.u16())
		for k := range moves {
			moves[k] = moveRec{src: r.u32(), fn: r.u32(), dst: r.u32()}
		}
		if r.short {
			reply(cstBadArg, nil)
			return
		}
		i.applyMembership(epoch, dead, moves)
		reply(cstOK, nil)

	case copJoin:
		if i.node.ID != managerNode {
			reply(cstBadArg, nil)
			return
		}
		i.dep.memb.own.purge(c.Src) // its migrations died with it
		i.obsReg().Add("lite.membership.joins", 1)
		i.reviveNode(p, c.Src)
		reply(cstOK, nil)

	case copMigPrepare:
		if i.node.ID != managerNode || len(in) < 9 {
			reply(cstBadArg, nil)
			return
		}
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		target := int(binary.LittleEndian.Uint32(in[5:]))
		m := &i.dep.memb
		if m.dead[c.Src] || m.dead[target] || target == c.Src {
			reply(cstBadArg, nil)
			return
		}
		err := m.own.prepare(c.Src, fn, target)
		if err == nil {
			i.obsReg().Add("lite.migrate.prepared", 1)
		}
		reply(errToCst(err), nil)

	case copMigState:
		reply(errToCst(i.adoptMigState(p, c.Src, in[1:])), nil)

	case copMigCommit:
		if i.node.ID != managerNode || len(in) < 9 {
			reply(cstBadArg, nil)
			return
		}
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		target := int(binary.LittleEndian.Uint32(in[5:]))
		m := &i.dep.memb
		ok, fresh := m.own.commit(c.Src, fn, target)
		if !ok {
			reply(cstBadArg, nil)
			return
		}
		if !fresh {
			// Idempotent re-commit: the first commit's reply was lost.
			reply(cstOK, nil)
			return
		}
		m.epoch++
		i.obsReg().Add("lite.membership.epochs", 1)
		i.obsReg().Add("lite.migrate.commits", 1)
		// The commit above is the linearization point: ack it now and
		// broadcast in the background, or the source and every call it
		// holds would wait out an O(cluster) fan-out (~3.2ms at 500
		// nodes). A concurrent broadcast just marks the view dirty.
		reply(cstOK, nil)
		i.cls.GoDaemonOn(i.node.ID, "lite-memb-broadcast", func(q *simtime.Proc) {
			i.broadcastMembership(q)
		})

	case copMigAbort:
		if i.node.ID != managerNode || len(in) < 5 {
			reply(cstBadArg, nil)
			return
		}
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		i.dep.memb.own.abort(c.Src, fn)
		i.obsReg().Add("lite.migrate.aborts", 1)
		reply(cstOK, nil)

	default:
		reply(cstBadArg, nil)
	}
}
