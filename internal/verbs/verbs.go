// Package verbs is the native RDMA programming interface of the
// simulation — the analogue of libibverbs. It wraps the rnic device
// model and charges the host-side costs of each call to the calling
// process: memory-region registration pins pages (the cost the paper's
// Figure 8 measures), posting work rings a doorbell, and polling a
// completion queue burns CPU.
//
// LITE is built on top of this interface, exactly as the real LITE is
// built on kernel Verbs; benchmarks also use it directly as the
// "native RDMA" baseline.
package verbs

import (
	"sort"

	"lite/internal/hostmem"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// Context is a per-process handle on a NIC, analogous to ibv_context.
type Context struct {
	nic *rnic.NIC
	as  *hostmem.AddressSpace
	cfg *params.Config
}

// Open returns a verbs context for the given NIC and process address
// space.
func Open(nic *rnic.NIC, as *hostmem.AddressSpace) *Context {
	return &Context{nic: nic, as: as, cfg: nic.Registry().Config()}
}

// NIC returns the underlying device.
func (c *Context) NIC() *rnic.NIC { return c.nic }

// AddressSpace returns the process address space of this context.
func (c *Context) AddressSpace() *hostmem.AddressSpace { return c.as }

// RegisterMR registers [va, va+size) of the process address space and
// pins its pages, charging the caller the pinning time (this is the
// cost native RDMA pays in Figure 8).
func (c *Context) RegisterMR(p *simtime.Proc, va hostmem.VAddr, size int64, perm rnic.Perm) (*rnic.MR, error) {
	pages := params.Pages(size, c.cfg.PageSize)
	p.Work(c.cfg.MRRegisterBase + simtime.Time(pages)*c.cfg.PinPerPage)
	return c.nic.RegisterMR(c.as, va, size, perm)
}

// RegisterPhysMR registers a physically addressed region. This is the
// kernel-only path LITE exploits: no page walk and no pinning, so the
// cost is the fixed driver overhead regardless of size.
func (c *Context) RegisterPhysMR(p *simtime.Proc, pa hostmem.PAddr, size int64, perm rnic.Perm) (*rnic.MR, error) {
	p.Work(c.cfg.MRRegisterBase)
	return c.nic.RegisterPhysMR(c.as, pa, size, perm)
}

// DeregisterMR removes a region, unpinning its pages (charged to the
// caller for virtual regions).
func (c *Context) DeregisterMR(p *simtime.Proc, mr *rnic.MR) error {
	cost := c.cfg.MRRegisterBase / 2
	if !mr.Phys() {
		cost += simtime.Time(params.Pages(mr.Size(), c.cfg.PageSize)) * c.cfg.UnpinPerPage
	}
	p.Work(cost)
	return c.nic.DeregisterMR(mr)
}

// CreateCQ returns a new completion queue.
func (c *Context) CreateCQ() *rnic.CQ { return c.nic.CreateCQ() }

// CreateQP returns a new queue pair.
func (c *Context) CreateQP(typ rnic.QPType, sendCQ, recvCQ *rnic.CQ) *rnic.QP {
	return c.nic.CreateQP(typ, sendCQ, recvCQ)
}

// inlineCopyCost returns the host PIO time of building an inline WQE:
// the posting CPU write-combines the payload into the doorbell window,
// paid per byte at InlineBandwidth. Zero for non-inline requests.
func (c *Context) inlineCopyCost(wr *rnic.WR) simtime.Time {
	if !wr.Inline {
		return 0
	}
	return params.TransferTime(wr.Len, c.cfg.InlineBandwidth)
}

// PostSend charges the doorbell (plus the PIO copy for inline WQEs)
// and hands the work request to the NIC.
func (c *Context) PostSend(p *simtime.Proc, qp *rnic.QP, wr rnic.WR) error {
	p.Work(c.cfg.NICDoorbell + c.inlineCopyCost(&wr))
	return c.nic.PostSend(p.Now(), qp, wr)
}

// PostSendList charges a single doorbell for a whole chain of work
// requests (plus the PIO copies of any inline payloads) and hands the
// chain to the NIC. This is the batched posting path: N requests cost
// one MMIO ring instead of N.
func (c *Context) PostSendList(p *simtime.Proc, qp *rnic.QP, wrs []rnic.WR) error {
	cost := c.cfg.NICDoorbell
	for k := range wrs {
		cost += c.inlineCopyCost(&wrs[k])
	}
	p.Work(cost)
	return c.nic.PostSendList(p.Now(), qp, wrs)
}

// PostRecvN charges a single doorbell and posts n copies of one receive
// buffer.
func (c *Context) PostRecvN(p *simtime.Proc, qp *rnic.QP, r rnic.PostedRecv, n int) error {
	p.Work(c.cfg.NICDoorbell)
	return qp.PostRecvN(r, n)
}

// PollCQ busy-polls the CQ until a completion arrives, charging the
// wait to the caller's CPU account (native RDMA pollers spin).
func (c *Context) PollCQ(p *simtime.Proc, cq *rnic.CQ) rnic.CQE {
	for {
		if cqe, ok := cq.TryPoll(); ok {
			return cqe
		}
		t0 := p.Now()
		cq.Wait(p)
		p.Charge(p.Now() - t0)
	}
}

// ConnectRC creates a connected RC queue pair between two contexts,
// each side with its own send and receive CQs.
func ConnectRC(a, b *Context) (*rnic.QP, *rnic.QP) {
	qa := a.CreateQP(rnic.RC, a.CreateCQ(), a.CreateCQ())
	qb := b.CreateQP(rnic.RC, b.CreateCQ(), b.CreateCQ())
	qa.Connect(b.nic.Node(), qb.QPN())
	qb.Connect(a.nic.Node(), qa.QPN())
	return qa, qb
}

// ConnectQP performs the cold RC connection establishment for an
// already-created QP: the rdma_cm REQ/REP/RTU exchange plus the
// INIT→RTR→RTS driver transitions, charged to the calling process at
// Params.QPConnectTime. This is the path leasing avoids.
func (c *Context) ConnectQP(p *simtime.Proc, qp *rnic.QP, remoteNode, remoteQPN int) {
	p.Work(simtime.Time(c.cfg.QPConnectTime))
	qp.Connect(remoteNode, remoteQPN)
}

// LeaseQP hands out a pre-established QP from a kernel connection
// pool: an ownership transfer with no wire exchange and no QP state
// machine, charged at Params.QPLeaseGrant. The QP must already be
// connected (it was built and connected ahead of demand).
func (c *Context) LeaseQP(p *simtime.Proc, qp *rnic.QP) *rnic.QP {
	p.Work(simtime.Time(c.cfg.QPLeaseGrant))
	return qp
}

// Dispatcher demultiplexes completions of one CQ by work-request id,
// so several processes can issue blocking operations over a shared CQ.
// A blocked caller registers under its work-request id, and the CQ
// hands the matching completion straight to it with one wakeup; a
// completion nobody waits for is queued on the CQ and claimed later
// with TryClaim.
type Dispatcher struct {
	cq *rnic.CQ
	// stash holds completions drained from the CQ but not yet claimed.
	stash map[uint64]rnic.CQE
	// waiting maps the work-request id of each blocked caller to its
	// record; free pools the records.
	waiting map[uint64]*waiter
	free    []*waiter
}

// waiter is one caller blocked on its completion.
type waiter struct {
	cond simtime.Cond
	cqe  rnic.CQE
	done bool
}

// NewDispatcher returns a dispatcher over cq and installs it as cq's
// direct-delivery hook; a CQ has at most one dispatcher.
func NewDispatcher(cq *rnic.CQ) *Dispatcher {
	d := &Dispatcher{cq: cq, stash: make(map[uint64]rnic.CQE), waiting: make(map[uint64]*waiter)}
	cq.SetDeliver(d.deliver)
	return d
}

// deliver hands cqe to the caller blocked on its work-request id, if
// there is one, and reports whether it did.
func (d *Dispatcher) deliver(e *simtime.Env, cqe rnic.CQE) bool {
	w, ok := d.waiting[cqe.WRID]
	if !ok {
		return false
	}
	delete(d.waiting, cqe.WRID)
	w.cqe, w.done = cqe, true
	w.cond.Signal(e)
	return true
}

// Wait blocks (busy-polling; CPU charged) until the completion with
// the given work-request id arrives and returns it.
func (d *Dispatcher) Wait(p *simtime.Proc, wrid uint64) rnic.CQE {
	if cqe, ok := d.TryClaim(wrid); ok {
		return cqe
	}
	t0 := p.Now()
	cqe := d.block(p, wrid)
	p.Charge(p.Now() - t0)
	return cqe
}

// WaitQuiet is Wait without CPU charging, for callers modeling
// sleep-based waiting.
func (d *Dispatcher) WaitQuiet(p *simtime.Proc, wrid uint64) rnic.CQE {
	if cqe, ok := d.TryClaim(wrid); ok {
		return cqe
	}
	return d.block(p, wrid)
}

// block registers p under wrid and parks it until deliver hands it the
// completion.
func (d *Dispatcher) block(p *simtime.Proc, wrid uint64) rnic.CQE {
	var w *waiter
	if n := len(d.free); n > 0 {
		w = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		w = new(waiter)
	}
	d.waiting[wrid] = w
	for !w.done {
		w.cond.Wait(p)
	}
	cqe := w.cqe
	w.cqe, w.done = rnic.CQE{}, false
	d.free = append(d.free, w)
	return cqe
}

// TryClaim drains any ready completions into the stash without
// blocking and claims the one with the given work-request id if it
// has arrived.
func (d *Dispatcher) TryClaim(wrid uint64) (rnic.CQE, bool) {
	d.drain()
	if cqe, ok := d.stash[wrid]; ok {
		delete(d.stash, wrid)
		return cqe, true
	}
	return rnic.CQE{}, false
}

// drain moves every queued completion into the stash.
func (d *Dispatcher) drain() {
	for {
		cqe, ok := d.cq.TryPoll()
		if !ok {
			return
		}
		d.stash[cqe.WRID] = cqe
	}
}

// Blocked returns how many callers are parked waiting for their
// completion. It is intended for diagnostics.
func (d *Dispatcher) Blocked() int { return len(d.waiting) }

// Unclaimed drains the CQ into the stash and returns the work-request
// ids of the completions that have arrived and that nobody has claimed
// yet, in ascending order. It is intended for diagnostics.
func (d *Dispatcher) Unclaimed() []uint64 {
	d.drain()
	ids := make([]uint64, 0, len(d.stash))
	for id := range d.stash {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
