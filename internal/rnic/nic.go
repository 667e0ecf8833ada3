package rnic

import (
	"fmt"
	"math"

	"lite/internal/fabric"
	"lite/internal/hostmem"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Registry connects the NICs of a cluster over one fabric and routes
// operations between them.
type Registry struct {
	env  *simtime.Env
	cfg  *params.Config
	fab  *fabric.Fabric
	nics []*NIC // indexed by node id; nil where no NIC is installed

	// bufs recycles the payload buffers of in-flight operations (pool.go).
	bufs bufPool
}

// NewRegistry returns an empty NIC registry over the given fabric.
func NewRegistry(env *simtime.Env, cfg *params.Config, fab *fabric.Fabric) *Registry {
	return &Registry{env: env, cfg: cfg, fab: fab}
}

// Config returns the shared cost model.
func (r *Registry) Config() *params.Config { return r.cfg }

// NIC returns the NIC installed at the given node, or nil.
func (r *Registry) NIC(node int) *NIC {
	if node < 0 || node >= len(r.nics) {
		return nil
	}
	return r.nics[node]
}

// maxNode bounds the node ids a NIC can be installed at: the registry
// indexes its NICs by node id.
const maxNode = 1 << 16

// NewNIC installs a NIC at node, backed by that node's physical
// memory, and adds a fabric port for it.
func (r *Registry) NewNIC(node int, mem *hostmem.Memory) (*NIC, error) {
	if node < 0 || node >= maxNode {
		return nil, fmt.Errorf("rnic: node id %d outside [0, %d)", node, maxNode)
	}
	if r.NIC(node) != nil {
		return nil, fmt.Errorf("rnic: node %d already has a NIC", node)
	}
	if err := r.fab.AddPort(node); err != nil {
		return nil, err
	}
	n := &NIC{
		reg:      r,
		node:     node,
		mem:      mem,
		mrs:      []*MR{nil},
		qps:      []*QP{nil},
		keyCache: newDenseLRU[uint32](r.cfg.MRKeyCacheEntries),
		pteCache: newLRU[pteKey](int(r.cfg.PTECacheBytes / r.cfg.PageSize)),
		qpCache:  newDenseLRU[int](r.cfg.QPCacheEntries),
	}
	// On the registry's clock the pipelines keep only the busy intervals
	// still ahead of it: every reservation is made at or after now.
	n.txPipe.SetClock(r.env)
	n.rxPipe.SetClock(r.env)
	n.dma.SetClock(r.env)
	for len(r.nics) <= node {
		r.nics = append(r.nics, nil)
	}
	r.nics[node] = n
	return n, nil
}

type pteKey struct {
	as    *hostmem.AddressSpace
	vpage int64
}

// NIC is one node's simulated RDMA NIC.
type NIC struct {
	reg  *Registry
	node int
	mem  *hostmem.Memory

	txPipe simtime.Server
	rxPipe simtime.Server
	dma    simtime.Server

	// mrs is indexed by protection key and qps by QPN. Both count up
	// from 1, so index 0 is always nil; a deregistered key holds nil
	// and liveMRs counts the registered regions. QPs are never
	// destroyed.
	mrs      []*MR
	liveMRs  int
	qps      []*QP
	keyCache *lru[uint32]
	pteCache *lru[pteKey]
	qpCache  *lru[int]

	// Counters for diagnostics and experiments.
	OpsPosted    int64
	OpsDelivered int64
	Doorbells    int64 // PostSend/PostSendList calls: one doorbell ring each

	// obs, when non-nil, receives the NIC's counters (cache hits and
	// misses, RC timeouts, RNR exhaustion) and pipeline spans.
	obs *obs.Registry

	// Free lists of the event records this NIC's requests schedule.
	pushes  freeList[cqPush]
	commits freeList[commit]
	imms    freeList[immDelivery]
	reads   freeList[readOp]
	streams freeList[stream]
	helds   freeList[heldWR]
}

// Node returns the node id this NIC is installed at.
func (n *NIC) Node() int { return n.node }

// Mem returns the node's physical memory.
func (n *NIC) Mem() *hostmem.Memory { return n.mem }

// Registry returns the registry this NIC belongs to.
func (n *NIC) Registry() *Registry { return n.reg }

// SetObs directs the NIC's counters and pipeline spans into the given
// registry (normally the owning node's). A nil registry disables
// collection. Failure counters appear as "rnic.timeouts" and
// "rnic.rnr_exhausted"; SRAM cache traffic as "rnic.<cache>.hits" /
// ".misses" for the mrkey, pte and qp caches.
func (n *NIC) SetObs(reg *obs.Registry) { n.obs = reg }

// RegisterMR registers a virtual-address memory region of the given
// address space with the NIC and pins its pages. The caller (driver
// layer) is responsible for charging the pinning time; this method
// only performs the state changes.
func (n *NIC) RegisterMR(as *hostmem.AddressSpace, va hostmem.VAddr, size int64, perm Perm) (*MR, error) {
	if size <= 0 {
		return nil, hostmem.ErrBadSize
	}
	ps := n.mem.PageSize()
	// Pin page by page: virtual ranges need not be physically contiguous.
	var pinned []hostmem.PAddr
	for off := int64(0); off < size; off += ps {
		pa, err := as.Translate(va + hostmem.VAddr(off))
		if err != nil {
			for _, q := range pinned {
				_ = n.mem.Unpin(q, 1)
			}
			return nil, err
		}
		page := pa - hostmem.PAddr(int64(pa)%ps)
		if err := n.mem.Pin(page, 1); err != nil {
			return nil, err
		}
		pinned = append(pinned, page)
	}
	return n.addMR(&MR{node: n.node, size: size, perm: perm, as: as, va: va}), nil
}

// RegisterPhysMR registers a physically addressed memory region (the
// kernel-only path). No pinning is needed: the caller guarantees the
// memory is resident kernel memory.
func (n *NIC) RegisterPhysMR(mem *hostmem.AddressSpace, pa hostmem.PAddr, size int64, perm Perm) (*MR, error) {
	if size <= 0 {
		return nil, hostmem.ErrBadSize
	}
	return n.addMR(&MR{node: n.node, size: size, perm: perm, phys: true, pa: pa, as: mem}), nil
}

// addMR gives mr the next protection key and registers it.
func (n *NIC) addMR(mr *MR) *MR {
	mr.key = uint32(len(n.mrs))
	n.mrs = append(n.mrs, mr)
	n.liveMRs++
	return mr
}

// DeregisterMR removes the region and unpins its pages (for virtual
// regions). The caller charges the unpinning time.
func (n *NIC) DeregisterMR(mr *MR) error {
	if _, ok := n.LookupMR(mr.key); !ok {
		return ErrBadMR
	}
	n.mrs[mr.key] = nil
	n.liveMRs--
	n.keyCache.Invalidate(mr.key)
	if !mr.phys {
		ps := n.mem.PageSize()
		for off := int64(0); off < mr.size; off += ps {
			pa, err := mr.as.Translate(mr.va + hostmem.VAddr(off))
			if err != nil {
				return err
			}
			page := pa - hostmem.PAddr(int64(pa)%ps)
			if err := n.mem.Unpin(page, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// LookupMR resolves a protection key on this NIC.
func (n *NIC) LookupMR(key uint32) (*MR, bool) {
	if uint64(key) >= uint64(len(n.mrs)) {
		return nil, false
	}
	mr := n.mrs[key]
	return mr, mr != nil
}

// CreateCQ returns a new completion queue.
func (n *NIC) CreateCQ() *CQ { return &CQ{} }

// CreateQP returns a new queue pair using the given completion queues.
func (n *NIC) CreateQP(typ QPType, sendCQ, recvCQ *CQ) *QP {
	qp := &QP{qpn: len(n.qps), nic: n, typ: typ, sendCQ: sendCQ, recvCQ: recvCQ}
	n.qps = append(n.qps, qp)
	return qp
}

// lookupQP returns the QP numbered qpn, or nil.
func (n *NIC) lookupQP(qpn int) *QP {
	if qpn < 0 || qpn >= len(n.qps) {
		return nil
	}
	return n.qps[qpn]
}

// QPCountByOwner returns the number of live QPs tagged with the given
// owner label (see QP.SetOwner).
func (n *NIC) QPCountByOwner(owner string) int {
	c := 0
	for _, qp := range n.qps[1:] {
		if qp.owner == owner {
			c++
		}
	}
	return c
}

// keyCost returns the SRAM cost of touching MR key k: zero on a cache
// hit, and a host-fetch penalty that grows with the size of the
// host-side MR table on a miss.
func (n *NIC) keyCost(k uint32) simtime.Time {
	if n.keyCache.Access(k) {
		n.obs.Add("rnic.mrkey.hits", 1)
		return 0
	}
	n.obs.Add("rnic.mrkey.misses", 1)
	c := n.reg.cfg.MRKeyMissBase
	if extra := n.liveMRs; extra > n.reg.cfg.MRKeyCacheEntries {
		depth := math.Log2(float64(extra) / float64(n.reg.cfg.MRKeyCacheEntries))
		c += simtime.Time(depth * float64(n.reg.cfg.MRKeyMissPerLog2))
	}
	return c
}

// pteCost returns the translation cost of touching [off, off+length)
// of a virtual MR: one potential PTE fetch per page. Physical MRs cost
// nothing (call sites skip them).
func (n *NIC) pteCost(mr *MR, off, length int64) simtime.Time {
	ps := n.mem.PageSize()
	start := (int64(mr.va) + off) / ps
	end := (int64(mr.va) + off + length + ps - 1) / ps
	if length == 0 {
		end = start + 1
	}
	var c simtime.Time
	for vp := start; vp < end; vp++ {
		if n.pteCache.Access(pteKey{mr.as, vp}) {
			n.obs.Add("rnic.pte.hits", 1)
		} else {
			n.obs.Add("rnic.pte.misses", 1)
			c += n.reg.cfg.PTEMiss
		}
	}
	return c
}

// qpCost returns the QP-context SRAM cost of touching QP number qpn.
func (n *NIC) qpCost(qpn int) simtime.Time {
	if n.qpCache.Access(qpn) {
		n.obs.Add("rnic.qp.hits", 1)
		return 0
	}
	n.obs.Add("rnic.qp.misses", 1)
	return n.reg.cfg.QPMiss
}

// mrAccessCost is the total NIC-side cost of addressing a region.
func (n *NIC) mrAccessCost(mr *MR, off, length int64) simtime.Time {
	c := n.keyCost(mr.key)
	if !mr.phys {
		c += n.pteCost(mr, off, length)
	}
	return c
}

// PipelineBusy reports the cumulative busy time of the NIC's transmit
// pipeline, receive pipeline, and DMA engine, for utilization studies.
func (n *NIC) PipelineBusy() (tx, rx, dma simtime.Time) {
	return n.txPipe.BusyTotal(), n.rxPipe.BusyTotal(), n.dma.BusyTotal()
}
