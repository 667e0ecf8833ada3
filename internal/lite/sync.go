package lite

import (
	"encoding/binary"

	"lite/internal/hostmem"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// localAtomicCost is the host cost of a node-local atomic operation.
const localAtomicCost = 150 // nanoseconds, see use below

// rawAtomic executes the atomic work request wr (kind and operands
// filled in by the caller) on the 8-byte word at (node, pa) and returns
// the word's previous value. Remote words go through the responder
// NIC's atomic engine; a node-local word is updated directly, by the
// rule that engine runs.
func (i *Instance) rawAtomic(p *simtime.Proc, node int, pa hostmem.PAddr, wr rnic.WR, pri Priority) (uint64, error) {
	if node == i.node.ID {
		p.Work(localAtomicCost)
		var b [8]byte
		if err := i.node.Mem.Read(pa, b[:]); err != nil {
			return 0, err
		}
		old := binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], wr.AtomicNext(old))
		return old, i.node.Mem.Write(pa, b[:])
	}
	var result uint64
	var buf [8]byte
	wr.LocalBuf = buf[:]
	wr.Len = 8
	wr.RemoteOff = int64(pa)
	wr.AtomicResult = &result
	if err := i.postAndWait(p, node, pri, wr); err != nil {
		return 0, err
	}
	return result, nil
}

// resolveWord resolves (lh, off) to the node and physical address of
// an 8-byte word, which must not straddle chunks.
func (i *Instance) resolveWord(h LH, off int64, need Perm, ten uint16) (int, hostmem.PAddr, error) {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return 0, 0, err
	}
	if e.perm&need == 0 {
		return 0, 0, ErrPermission
	}
	var partBuf [4]part
	parts, err := split(partBuf[:0], e.ls, off, 8)
	if err != nil {
		return 0, 0, err
	}
	if len(parts) != 1 {
		return 0, 0, ErrBounds
	}
	pt := parts[0]
	pa := pt.c.pa + hostmem.PAddr(pt.cOff)
	if pa&7 != 0 {
		return 0, 0, ErrAlign
	}
	return pt.c.node, pa, nil
}

// atomicInternal implements LT_fetch-add (wr an OpFetchAdd) and
// LT_test-set (an OpCmpSwap: set the word to wr.Swap if it was zero) on
// LMR space, returning the word's previous value.
func (i *Instance) atomicInternal(p *simtime.Proc, h LH, off int64, wr rnic.WR, pri Priority, ten uint16) (uint64, error) {
	p.Work(i.cfg.LITECheck)
	node, pa, err := i.resolveWord(h, off, PermWrite, ten)
	if err != nil {
		return 0, err
	}
	return i.rawAtomic(p, node, pa, wr, pri)
}

// ---- distributed locks (§7.2) ----

// Lock names a LITE distributed lock: a 64-bit word at an owner node
// plus a FIFO wait queue maintained there.
type Lock struct {
	ID    uint64
	Owner int
	pa    hostmem.PAddr
}

// lockState is the owner-node bookkeeping for one lock.
type lockState struct {
	pa            hostmem.PAddr
	waiting       []*Call // parked LT_lock wait RPCs, FIFO
	pendingGrants int     // releases that arrived before the wait RPC
}

// Lock-protocol opcodes carried over funcLock.
const (
	lopWait byte = iota + 1
	lopRelease
	lopAlloc
)

// allocLockInternal creates a lock whose word and wait queue live at
// the owner node.
func (i *Instance) allocLockInternal(p *simtime.Proc, owner int, pri Priority) (Lock, error) {
	p.Work(i.cfg.LITECheck)
	if owner == i.node.ID {
		return i.allocLockLocal(), nil
	}
	out, err := i.rpc(p, &rpcCall{dst: owner, fn: funcLock, input: []byte{lopAlloc}, maxReply: 17, pri: pri, timeout: i.opts.RPCTimeout})
	if err != nil {
		return Lock{}, err
	}
	if len(out) < 17 || out[0] != cstOK {
		return Lock{}, ErrRemoteFailed
	}
	return Lock{
		ID:    binary.LittleEndian.Uint64(out[1:]),
		Owner: owner,
		pa:    hostmem.PAddr(binary.LittleEndian.Uint64(out[9:])),
	}, nil
}

func (i *Instance) allocLockLocal() Lock {
	i.lockSeq++
	id := uint64(i.node.ID)<<32 | i.lockSeq&0xffffffff
	pa := i.scratchAlloc(8)
	_ = i.node.Mem.Write(pa, make([]byte, 8))
	i.locks[id] = &lockState{pa: pa}
	return Lock{ID: id, Owner: i.node.ID, pa: pa}
}

// lockInternal implements LT_lock: one fetch-add acquires an
// uncontended lock in a single RTT (~2.2 us in the paper); contended
// callers park in a FIFO queue at the owner and are woken by exactly
// one message, minimizing network traffic (§7.2).
func (i *Instance) lockInternal(p *simtime.Proc, lk Lock, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	old, err := i.rawAtomic(p, lk.Owner, lk.pa, rnic.WR{Kind: rnic.OpFetchAdd, Add: 1}, pri)
	if err != nil {
		return err
	}
	if old == 0 {
		return nil
	}
	// The reply IS the grant; it arrives when the lock is handed over,
	// so wait without an RPC timeout.
	_, err = i.rpc(p, &rpcCall{dst: lk.Owner, fn: funcLock, input: wire{lopWait}.u64(lk.ID), maxReply: 1, pri: pri})
	return err
}

// unlockInternal implements LT_unlock.
func (i *Instance) unlockInternal(p *simtime.Proc, lk Lock, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	old, err := i.rawAtomic(p, lk.Owner, lk.pa, rnic.WR{Kind: rnic.OpFetchAdd, Add: ^uint64(0)}, pri) // -1
	if err != nil {
		return err
	}
	if old <= 1 {
		return nil // no waiters
	}
	_, err = i.rpc(p, &rpcCall{dst: lk.Owner, fn: funcLock, input: wire{lopRelease}.u64(lk.ID), maxReply: 1, pri: pri, timeout: i.opts.RPCTimeout})
	return err
}

// handleLock executes lock-protocol requests at the owner node.
func (i *Instance) handleLock(p *simtime.Proc, c *Call) {
	in := c.Input
	if len(in) < 1 {
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
		return
	}
	switch in[0] {
	case lopAlloc:
		lk := i.allocLockLocal()
		_ = i.replyRPCInternal(p, c, wire{cstOK}.u64(lk.ID).u64(uint64(lk.pa)), PriHigh)

	case lopWait:
		id := binary.LittleEndian.Uint64(in[1:])
		st, ok := i.locks[id]
		if !ok {
			_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
			return
		}
		if st.pendingGrants > 0 {
			st.pendingGrants--
			_ = i.replyRPCInternal(p, c, []byte{cstOK}, PriHigh)
			return
		}
		st.waiting = append(st.waiting, c) // grant later

	case lopRelease:
		id := binary.LittleEndian.Uint64(in[1:])
		st, ok := i.locks[id]
		if !ok {
			_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
			return
		}
		if len(st.waiting) > 0 {
			next := st.waiting[0]
			st.waiting = st.waiting[1:]
			_ = i.replyRPCInternal(p, next, []byte{cstOK}, PriHigh)
		} else {
			st.pendingGrants++
		}
		_ = i.replyRPCInternal(p, c, []byte{cstOK}, PriHigh)

	default:
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
	}
}

// ---- distributed barrier (§7.2) ----

// barrierState tracks arrivals for one barrier generation at the
// manager node.
type barrierState struct {
	arrived []*Call
}

// barrierInternal implements LT_barrier: wait until n participants
// have reached barrier id.
func (i *Instance) barrierInternal(p *simtime.Proc, id uint64, n int, pri Priority) error {
	p.Work(i.cfg.LITECheck)
	req := make([]byte, 13)
	binary.LittleEndian.PutUint64(req[0:], id)
	binary.LittleEndian.PutUint32(req[8:], uint32(n))
	out, err := i.rpc(p, &rpcCall{dst: managerNode, fn: funcBarrier, input: req, maxReply: 1, pri: pri})
	if err != nil {
		return err
	}
	if len(out) < 1 || out[0] != cstOK {
		return ErrRemoteFailed
	}
	return nil
}

// handleBarrier executes barrier arrivals at the manager node.
func (i *Instance) handleBarrier(p *simtime.Proc, c *Call) {
	if len(c.Input) < 12 {
		_ = i.replyRPCInternal(p, c, []byte{cstBadArg}, PriHigh)
		return
	}
	id := binary.LittleEndian.Uint64(c.Input[0:])
	n := int(binary.LittleEndian.Uint32(c.Input[8:]))
	bs := i.dep.barriers[id]
	if bs == nil {
		bs = &barrierState{}
		i.dep.barriers[id] = bs
	}
	bs.arrived = append(bs.arrived, c)
	if len(bs.arrived) >= n {
		for _, w := range bs.arrived {
			_ = i.replyRPCInternal(p, w, []byte{cstOK}, PriHigh)
		}
		delete(i.dep.barriers, id)
	}
}
