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
	copPing       // keepalive probe; reply carries the node's epoch
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
	cstBusy // migration admission: target already receiving this fn
)

func cstToErr(b byte) error {
	switch b {
	case cstOK:
		return nil
	case cstNameTaken:
		return ErrNameTaken
	case cstNoSuchName:
		return ErrNoSuchName
	case cstPermission:
		return ErrPermission
	case cstNoMemory:
		return hostmem.ErrOutOfMemory
	case cstBusy:
		return ErrMigrating
	}
	return ErrRemoteFailed
}

func errToCst(err error) byte {
	switch err {
	case nil:
		return cstOK
	case ErrNameTaken:
		return cstNameTaken
	case ErrNoSuchName:
		return cstNoSuchName
	case ErrPermission:
		return cstPermission
	case hostmem.ErrOutOfMemory, hostmem.ErrNoContiguous:
		return cstNoMemory
	case ErrMigrating:
		return cstBusy
	}
	return cstError
}

// ctl sends a control request and returns the response payload.
func (i *Instance) ctl(p *simtime.Proc, dst int, req []byte, maxReply int64, pri Priority) ([]byte, error) {
	out, err := i.rpcInternal(p, dst, funcControl, req, maxReply+1, pri)
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
	req := make([]byte, 5)
	req[0] = copBind
	binary.LittleEndian.PutUint32(req[1:], uint32(fn))
	out, err := i.ctl(p, dst, req, 24, pri)
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
	req := make([]byte, 9)
	req[0] = copAllocChunk
	binary.LittleEndian.PutUint64(req[1:], uint64(size))
	out, err := i.ctl(p, dst, req, 8, pri)
	if err != nil {
		return 0, err
	}
	return hostmem.PAddr(binary.LittleEndian.Uint64(out)), nil
}

func (i *Instance) ctlFreeChunk(p *simtime.Proc, dst int, pa hostmem.PAddr, size int64, pri Priority) error {
	req := make([]byte, 17)
	req[0] = copFreeChunk
	binary.LittleEndian.PutUint64(req[1:], uint64(pa))
	binary.LittleEndian.PutUint64(req[9:], uint64(size))
	_, err := i.ctl(p, dst, req, 0, pri)
	return err
}

func (i *Instance) ctlRegName(p *simtime.Proc, ls *lmrState, pri Priority) error {
	req := make([]byte, 9+len(ls.name))
	req[0] = copRegName
	binary.LittleEndian.PutUint64(req[1:], ls.id)
	copy(req[9:], ls.name)
	_, err := i.ctl(p, i.opts.ManagerNode, req, 0, pri)
	return err
}

func (i *Instance) ctlUnregName(p *simtime.Proc, name string, pri Priority) error {
	req := append([]byte{copUnregName}, name...)
	_, err := i.ctl(p, i.opts.ManagerNode, req, 0, pri)
	return err
}

func (i *Instance) ctlLookupName(p *simtime.Proc, name string, pri Priority) (uint64, error) {
	req := append([]byte{copLookupName}, name...)
	out, err := i.ctl(p, i.opts.ManagerNode, req, 8, pri)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(out), nil
}

func (i *Instance) ctlMapRequest(p *simtime.Proc, master int, lmrID uint64, pri Priority) (Perm, error) {
	req := make([]byte, 9)
	req[0] = copMapReq
	binary.LittleEndian.PutUint64(req[1:], lmrID)
	out, err := i.ctl(p, master, req, 1, pri)
	if err != nil {
		return 0, err
	}
	return Perm(out[0]), nil
}

func (i *Instance) ctlUnmapNotify(p *simtime.Proc, master int, lmrID uint64, pri Priority) error {
	req := make([]byte, 9)
	req[0] = copUnmapNotify
	binary.LittleEndian.PutUint64(req[1:], lmrID)
	_, err := i.ctl(p, master, req, 0, pri)
	return err
}

func (i *Instance) ctlInvalidate(p *simtime.Proc, node int, lmrID uint64, pri Priority) error {
	req := make([]byte, 9)
	req[0] = copInvalidate
	binary.LittleEndian.PutUint64(req[1:], lmrID)
	_, err := i.ctl(p, node, req, 0, pri)
	return err
}

func (i *Instance) ctlMemset(p *simtime.Proc, dst int, pa hostmem.PAddr, val byte, n int64, pri Priority) error {
	req := make([]byte, 18)
	req[0] = copMemset
	binary.LittleEndian.PutUint64(req[1:], uint64(pa))
	binary.LittleEndian.PutUint64(req[9:], uint64(n))
	req[17] = val
	_, err := i.ctl(p, dst, req, 0, pri)
	return err
}

func (i *Instance) ctlMemcpy(p *simtime.Proc, srcNode int, srcPA hostmem.PAddr, dstNode int, dstPA hostmem.PAddr, n int64, pri Priority) error {
	req := make([]byte, 29)
	req[0] = copMemcpy
	binary.LittleEndian.PutUint64(req[1:], uint64(srcPA))
	binary.LittleEndian.PutUint64(req[9:], uint64(n))
	binary.LittleEndian.PutUint32(req[17:], uint32(dstNode))
	binary.LittleEndian.PutUint64(req[21:], uint64(dstPA))
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
		ring, ok := i.srvRings[key]
		if !ok {
			if validateRingBytes(i.opts.RingBytes) != nil {
				// A ring the IMM offset encoding cannot address must
				// never go live; the client surfaces a setup error.
				reply(cstBadArg, nil)
				return
			}
			pa, leased := i.lease.takeRing()
			if leased {
				// Pre-allocated ring arena from the lease pool: a
				// lookup and handoff instead of the page allocator.
				p.Work(simtime.Time(i.cfg.QPLeaseGrant))
				i.obsReg().Add("lite.lease.ring_leased", 1)
			} else {
				var err error
				pa, err = i.node.Mem.AllocContiguous(i.opts.RingBytes)
				if err != nil {
					reply(errToCst(err), nil)
					return
				}
			}
			// The ring is stamped with this incarnation's boot count:
			// its dedup window can only vouch for calls first posted to
			// this incarnation.
			ring = &srvRing{client: c.Src, fn: fn, pa: pa, size: i.opts.RingBytes, boot: i.boots}
			if w, ok := i.adopted[key]; ok {
				// A migration shipped this client's dedup window ahead
				// of the binding; the fresh ring inherits the history
				// and the boot lineage it vouches for.
				ring.adoptedBoots = w.boots
				ring.dedup = w.dedup
				ring.dedupFIFO = w.dedupFIFO
				delete(i.adopted, key)
			}
			i.srvRings[key] = ring
		} else {
			// Re-bind after a failure: the client restarts its tail at
			// zero, so reset the consume pointer to match. Frames the
			// old incarnation left unconsumed are dropped (their
			// callers have already timed out or failed over). The dedup
			// window and its boot stamp survive — the server did not
			// restart, so its duplicate-suppression history is intact.
			ring.reset()
		}
		out := make([]byte, 24)
		binary.LittleEndian.PutUint64(out[0:], uint64(ring.pa))
		binary.LittleEndian.PutUint64(out[8:], uint64(ring.size))
		binary.LittleEndian.PutUint64(out[16:], ring.boot)
		reply(cstOK, out)

	case copAllocChunk:
		size := int64(binary.LittleEndian.Uint64(in[1:]))
		pa, err := i.node.Mem.AllocContiguous(size)
		if err != nil {
			reply(errToCst(err), nil)
			return
		}
		p.Work(simtime.Time((size+i.cfg.PageSize-1)/i.cfg.PageSize) * i.cfg.PageAllocPerPage)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(pa))
		reply(cstOK, out)

	case copFreeChunk:
		pa := hostmem.PAddr(binary.LittleEndian.Uint64(in[1:]))
		size := int64(binary.LittleEndian.Uint64(in[9:]))
		reply(errToCst(i.node.Mem.Free(pa, size)), nil)

	case copRegName:
		id := binary.LittleEndian.Uint64(in[1:])
		name := string(in[9:])
		if i.node.ID != i.opts.ManagerNode {
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
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, ls.id)
		reply(cstOK, out)

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
			if e.ls.id == id {
				delete(i.lhs, h)
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
		var err error
		if dstNode == i.node.ID {
			i.memcpyCost(p, n)
			err = i.node.Mem.Write(dstPA, buf)
		} else {
			err = i.rawWrite(p, dstNode, dstPA, buf, PriHigh)
		}
		reply(errToCst(err), nil)

	case copPing:
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, i.epoch)
		reply(cstOK, out)

	case copMembership:
		if len(in) < 11 {
			reply(cstBadArg, nil)
			return
		}
		epoch := binary.LittleEndian.Uint64(in[1:])
		n := int(binary.LittleEndian.Uint16(in[9:]))
		if len(in) < 13+4*n {
			reply(cstBadArg, nil)
			return
		}
		dead := make([]int, n)
		for k := 0; k < n; k++ {
			dead[k] = int(binary.LittleEndian.Uint32(in[11+4*k:]))
		}
		off := 11 + 4*n
		m := int(binary.LittleEndian.Uint16(in[off:]))
		off += 2
		if len(in) < off+12*m {
			reply(cstBadArg, nil)
			return
		}
		moves := make([]moveRec, m)
		for k := 0; k < m; k++ {
			moves[k] = moveRec{
				src: int(binary.LittleEndian.Uint32(in[off:])),
				fn:  int(binary.LittleEndian.Uint32(in[off+4:])),
				dst: int(binary.LittleEndian.Uint32(in[off+8:])),
			}
			off += 12
		}
		i.applyMembership(epoch, dead, moves)
		reply(cstOK, nil)

	case copJoin:
		if i.node.ID != i.opts.ManagerNode {
			reply(cstBadArg, nil)
			return
		}
		i.handleJoin(p, c.Src)
		reply(cstOK, nil)

	case copMigPrepare:
		if i.node.ID != i.opts.ManagerNode || len(in) < 9 {
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
		// Per-target admission: at most one in-flight handoff of a
		// given fn may target a node. Two concurrent drains of distinct
		// shards sharing fn onto one target would interleave their
		// transfer/commit phases against a single fn-keyed adoption slot
		// on the target; the loser is bounced with cstBusy and retries
		// after the winner commits.
		for k, to := range m.handoff {
			if k.fn == fn && to == target && k.src != c.Src {
				reply(cstBusy, nil)
				return
			}
		}
		// The handoff record is routing-inert; it exists to gate the
		// commit, so a crash between here and commit resolves to the
		// moves table's answer, deterministically.
		m.handoff[migKey{c.Src, fn}] = target
		i.obsReg().Add("lite.migrate.prepared", 1)
		reply(cstOK, nil)

	case copMigState:
		if len(in) < 1 {
			reply(cstBadArg, nil)
			return
		}
		if err := i.adoptMigState(p, c.Src, in[1:]); err != nil {
			reply(errToCst(err), nil)
			return
		}
		reply(cstOK, nil)

	case copMigCommit:
		if i.node.ID != i.opts.ManagerNode || len(in) < 9 {
			reply(cstBadArg, nil)
			return
		}
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		target := int(binary.LittleEndian.Uint32(in[5:]))
		m := &i.dep.memb
		k := migKey{c.Src, fn}
		if to, ok := m.moves[k]; ok && to == target {
			// Idempotent re-commit: the first commit's reply was lost.
			reply(cstOK, nil)
			return
		}
		if to, ok := m.handoff[k]; !ok || to != target {
			reply(cstBadArg, nil)
			return
		}
		delete(m.handoff, k)
		m.moves[k] = target
		// Collapse chains eagerly: if fn had previously moved TO c.Src,
		// or target was itself a recorded source, rewrite so the table
		// stays cycle-free and one lookup away from the live owner.
		delete(m.moves, migKey{target, fn})
		m.epoch++
		i.obsReg().Add("lite.membership.epochs", 1)
		i.obsReg().Add("lite.migrate.commits", 1)
		if i.opts.AsyncCommitBroadcast {
			// The moves-table update above is the linearization point;
			// ack the source now and recite the epoch to the cluster in
			// the background. broadcastMembership's coalescing flags
			// make a concurrent second entry a cheap dirty-mark.
			reply(cstOK, nil)
			i.cls.GoDaemonOn(i.node.ID, "lite-memb-broadcast", func(q *simtime.Proc) {
				i.broadcastMembership(q)
			})
			return
		}
		i.broadcastMembership(p)
		reply(cstOK, nil)

	case copMigAbort:
		if i.node.ID != i.opts.ManagerNode || len(in) < 5 {
			reply(cstBadArg, nil)
			return
		}
		fn := int(binary.LittleEndian.Uint32(in[1:]))
		delete(i.dep.memb.handoff, migKey{c.Src, fn})
		i.obsReg().Add("lite.migrate.aborts", 1)
		reply(cstOK, nil)

	default:
		reply(cstBadArg, nil)
	}
}
