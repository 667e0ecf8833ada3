// Package lite implements LITE, the Local Indirection TiEr for RDMA of
// Tsai & Zhang (SOSP'17), on the simulated substrate: a kernel-space
// indirection layer that virtualizes native RDMA behind a flexible,
// high-level abstraction (LMRs named by application-chosen names and
// accessed through opaque handles), manages and shares all RDMA
// resources across applications, and preserves native RDMA's latency.
//
// The package mirrors the paper's structure:
//
//   - the RDMA stack (§4): LT_malloc/LT_free/LT_map/LT_unmap, LT_read/
//     LT_write and the memory-like operations, all built on one global
//     physical-address memory registration per node so the NIC needs
//     neither per-region keys nor page-table entries;
//   - the RPC stack (§5): write-imm based RPC over per-(client,function)
//     ring buffers, a single shared receive-CQ polling thread per node,
//     and the shared-completion-page syscall optimizations;
//   - resource sharing and QoS (§6): K×N shared queue pairs per node and
//     the HW-Sep / SW-Pri isolation policies;
//   - extended functionality (§7): memory-like operations implemented on
//     RPC, and synchronization primitives (locks, barriers, atomics).
package lite

import (
	"errors"
	"fmt"

	"lite/internal/cluster"
	"lite/internal/hostmem"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/verbs"
)

// Errors returned by LITE operations.
var (
	ErrNoSuchName = errors.New("lite: no LMR registered under that name")
	ErrNameTaken  = errors.New("lite: name already registered")
	ErrBadHandle  = errors.New("lite: invalid or revoked lh")
	ErrPermission = errors.New("lite: permission denied")
	ErrBounds     = errors.New("lite: access outside LMR")
	// ErrAlign reports an atomic on a word that is not 8-byte aligned
	// in physical memory — the NIC's atomic engine contract, enforced
	// on the local fast path too so both paths behave identically.
	ErrAlign        = errors.New("lite: atomics require an 8-byte-aligned word")
	ErrNotMaster    = errors.New("lite: operation requires the master role")
	ErrFreed        = errors.New("lite: LMR has been freed")
	ErrTimeout      = errors.New("lite: operation timed out")
	ErrNodeDead     = errors.New("lite: node declared dead")
	ErrNoSuchRPC    = errors.New("lite: no RPC function with that ID")
	ErrRemoteFailed = errors.New("lite: remote operation failed")
	// ErrOverloaded reports that the destination shed the call at
	// admission: the function's budget (Options.AdmissionHighWater) or
	// the caller's credit bank could not cover it. Unlike ErrTimeout it
	// is a definitive statement that the call did NOT execute, so
	// retrying it (with backoff) is always safe — and unlike a timeout
	// it arrives in one round trip instead of a full timeout wait.
	ErrOverloaded = errors.New("lite: server overloaded, call shed")
	// ErrMaybeExecuted reports that a retry of a timed-out call reached
	// a server that has restarted since the call's first attempt: the
	// dedup window that would have recognized the earlier attempt died
	// with the previous incarnation, so whether the call executed is
	// unknowable. Unlike a silent re-execution this is a typed answer
	// the application can act on — idempotent operations resubmit,
	// non-idempotent ones reconcile. It is terminal to the retry layer.
	ErrMaybeExecuted = errors.New("lite: retry crossed a server restart, call may have executed")
	// ErrBadRingBytes reports an Options.RingBytes the IMM offset
	// encoding cannot address: ring offsets travel in 23 bits of 8-byte
	// units, so rings must be positive multiples of 8 no larger than
	// MaxRingBytes (64 MB). Anything larger would silently wrap offsets
	// and corrupt the ring.
	ErrBadRingBytes = errors.New("lite: RingBytes must be a positive multiple of 8 no larger than 64 MB")
	// ErrMoved reports that the function this call targeted has been
	// migrated away from the destination node: the server fenced the
	// request and answered with a tagRPCMoved notification instead of
	// executing it. Like ErrOverloaded it is a definitive "did NOT
	// execute"; the rich MovedError form carries the new home node, and
	// the retry layer re-routes there transparently, so applications
	// normally never observe it.
	ErrMoved = errors.New("lite: function migrated to another node")
	// ErrMigrating reports a Drain invoked on a function that is
	// already mid-migration on this node.
	ErrMigrating = errors.New("lite: function is already migrating")
	// ErrTenantDenied reports a cross-tenant namespace violation: a
	// tenant-tagged client touched an LMR or handle owned by a
	// different tenant. Unlike ErrPermission (which an owner can cure
	// with LT_grant), a tenant boundary is not grantable.
	ErrTenantDenied = errors.New("lite: handle belongs to another tenant")
)

// OverloadError is the rich form of ErrOverloaded a shed notification
// carries: RetryAfter is the server's estimate of when the caller's
// admission bank will cover one more call — a Retry-After hint, not a
// lease. It unwraps to ErrOverloaded, so errors.Is(err, ErrOverloaded)
// matches either form and existing callers need no change; the retry
// layer additionally extracts the hint with errors.As and stretches
// its backoff to honor it.
type OverloadError struct {
	RetryAfter simtime.Time
}

func (e *OverloadError) Error() string { return ErrOverloaded.Error() }

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// MovedError is the rich form of ErrMoved a tagRPCMoved notification
// carries: To is the node the function now lives on. It unwraps to
// ErrMoved so errors.Is matches either form; the retry layer extracts
// To with errors.As, records the move in its local view, and reissues
// the call against the new home without consuming a retry attempt.
type MovedError struct {
	To int
}

func (e *MovedError) Error() string { return ErrMoved.Error() }

// Unwrap makes errors.Is(err, ErrMoved) hold.
func (e *MovedError) Unwrap() error { return ErrMoved }

// TenantDeniedError is the rich form of ErrTenantDenied: Tenant is the
// caller, Owner the tenant that owns the handle or LMR it touched. It
// unwraps to ErrTenantDenied so errors.Is matches either form.
type TenantDeniedError struct {
	Tenant uint16
	Owner  uint16
}

func (e *TenantDeniedError) Error() string { return ErrTenantDenied.Error() }

// Unwrap makes errors.Is(err, ErrTenantDenied) hold.
func (e *TenantDeniedError) Unwrap() error { return ErrTenantDenied }

// managerNode is the node that hosts the cluster name directory (§3.3)
// and runs the cluster manager: membership, heartbeats and failover.
const managerNode = 0

// Options configures a LITE deployment.
type Options struct {
	// QPsPerPair is K in the paper's K×N queue-pair budget (§6.1).
	QPsPerPair int
	// RingBytes is the size of each RPC ring buffer LMR (§5.1 uses
	// 16 MB; the default is smaller to fit many bindings).
	RingBytes int64
	// RPCTimeout bounds LT_RPC waiting for a reply.
	RPCTimeout simtime.Time
	// RecvBatch is how many zero-byte IMM receive buffers the
	// background reposter keeps posted per node.
	RecvBatch int
	// MaxChunkBytes is the largest physically contiguous piece LITE
	// allocates for an LMR; larger LMRs are spread over multiple
	// chunks to avoid external fragmentation (§4.1). The paper found
	// the chunked layout costs under 2% versus one huge region.
	MaxChunkBytes int64

	// MeshPeers, when non-nil, restricts the boot-time shared-QP mesh
	// and control-ring setup to node pairs the predicate admits; nil
	// keeps the paper's full K×N mesh. The predicate is consulted once
	// per unordered pair (a < b) and must be symmetric in intent. At
	// datacenter scale the full mesh is exactly the connection
	// explosion RDMAvisor warns about (500 nodes ≈ 250k QP pairs), and
	// real deployments bring up connections to the peers a node
	// actually talks to; the `scale` benchmark meshes clients with the
	// kvstore servers and the manager only. RPCs are only valid
	// between meshed pairs — calls to an unmeshed peer have no QPs and
	// no control ring. Leasing (ConnectPeer) still works on demand for
	// any pair.
	MeshPeers func(a, b int) bool

	// HeartbeatInterval enables failure detection when nonzero: the
	// cluster manager probes every node with a keepalive RPC at this
	// period. Zero (the default) disables the detector entirely so
	// latency-sensitive deployments pay nothing for it.
	HeartbeatInterval simtime.Time
	// HeartbeatTimeout bounds each keepalive round trip.
	HeartbeatTimeout simtime.Time
	// ProbeStagger spreads the manager's per-target prober phases
	// deterministically across the heartbeat interval (offset derived
	// from the target id, not wall-clock). At hundreds of nodes this
	// turns the manager's probe traffic from one synchronized burst per
	// interval — which a leaf failure converts into a correlated
	// timeout storm — into a flat trickle. The `churn` experiment and
	// the benchmark's `fleet` workload run with it on; the `chaos` and
	// `drain` experiments and the fault tests run synchronized probers.
	ProbeStagger bool
	// RetryBackoff is the base of the exponential backoff between
	// retry attempts (doubled per attempt, plus deterministic jitter
	// derived from the simulation clock, never wall-clock).
	RetryBackoff simtime.Time

	// AdmissionHighWater, when positive, enables server-side admission
	// control on application RPC functions (admission.go): a call is
	// charged input-bytes + service-time-EWMA cost against a budget of
	// AdmissionHighWater average calls, and against its caller's
	// weighted credit bank (tenants by their QoS weight, untenanted
	// client nodes weight 1). A call that neither covers is shed with a
	// fast ErrOverloaded notice carrying a Retry-After hint, instead of
	// being queued until the caller's wait degenerates into a timeout.
	// Zero (the default) disables shedding.
	AdmissionHighWater int

	// Deprecated: FairAdmission is ignored; weighted-fair admission is
	// the only policy under AdmissionHighWater.
	FairAdmission bool

	// QPLeasePool, when positive, keeps that many pre-established spare
	// QPs per peer in a kernel connection pool (KRCORE-style): a node
	// re-establishing connectivity leases one per needed QP at
	// Params.QPLeaseGrant instead of paying the full rdma_cm exchange
	// at Params.QPConnectTime, and a background replenisher rebuilds
	// the pool off the critical path. Zero (the default) disables the
	// pool; reconnects (a restarting node's first step) then
	// cold-connect. The pool, like the manager's
	// membership table, is modeled as surviving node restarts (it lives
	// in the kernel connection service on the paper's HA pair).
	QPLeasePool int
}

// DefaultOptions returns the standard deployment configuration.
func DefaultOptions() Options {
	return Options{
		QPsPerPair:       2,
		RingBytes:        1 << 20,
		RPCTimeout:       10 * 1000 * 1000, // 10ms
		RecvBatch:        512,
		MaxChunkBytes:    4 << 20,
		HeartbeatTimeout: 500 * 1000, // 500us per keepalive round trip
		RetryBackoff:     100 * 1000, // 100us base, doubled per attempt
	}
}

// Instance is one node's LITE kernel module.
type Instance struct {
	cls  *cluster.Cluster
	node *cluster.Node
	opts Options
	cfg  *params.Config
	dep  *Deployment

	ctx      *verbs.Context
	globalMR *rnic.MR

	// Shared queue pairs with their send-queue state: qpSig[remote][k];
	// nil for the local node.
	qpSig    [][]*qpSigState
	nextQP   []int
	sendCQ   *rnic.CQ
	sendDisp *verbs.Dispatcher
	recvCQ   *rnic.CQ

	// lowRecv lists shared QPs whose posted-receive count dropped below
	// the restock low-water mark (fed by rnic.SetRecvLowWater), so
	// topUpRecvs visits exactly the QPs that need a refill instead of
	// scanning all peers on every completion.
	lowRecv []*rnic.QP

	scratch   scratchRing
	nextWR    uint64
	framePool [][]byte // recycled ring-frame buffers (postToRing)

	// LMR state (lmr.go).
	// lhs is indexed by lh: handles count up from 1, so lhs[0] is
	// nil, and an unmapped or freed handle's entry is nil.
	lhs      []*lhEntry
	localLMR map[uint64]*lmrState // LMRs homed (at least partly) here

	// RPC state (rpc.go).
	funcs     map[int]*rpcFunc
	rings     fnTable // bindings and server rings by peer, then function
	pending   pendingTable
	nextToken uint32
	// nextSeq numbers retried RPCs for server-side duplicate
	// suppression. It is monotonic for the life of the instance and
	// deliberately NOT reset on restart, so a rebooted client can never
	// collide with sequence numbers its previous incarnation left in a
	// server's dedup window.
	nextSeq uint64
	// adm is the per-function admission state (admission.go),
	// created lazily and wiped wholesale on crash/restart (the queued
	// calls it accounted for die with the incarnation).
	adm map[int]*fnAdm
	// tenantCtrs caches per-tenant obs counter names (obs.go).
	tenantCtrs map[uint16]*tenantCtrNames
	// boots counts this node's incarnations: 0 at deployment boot,
	// incremented by every restart. It stamps ring frames and the
	// server-side dedup windows, so a retry whose first attempt
	// targeted an earlier incarnation is detectably ambiguous
	// (ErrMaybeExecuted) instead of silently re-executing.
	boots   uint64
	headUpd *simtime.Chan[headUpdate]

	// Migration state (migrate.go): the ownership view (owner.go), dedup
	// windows shipped ahead of a client's binding, and the application's
	// adoption hooks, keyed (src, fn) and consumed by their adoption.
	own         ownerView
	adopted     map[bindKey]*adoptedWindow
	onAdoptFrom map[migKey]AdoptFunc

	// Lease state (lease.go): the node's view of the kernel connection
	// pool.
	lease leaseState

	// Sync state (sync.go).
	locks map[uint64]*lockState
	// lockSeq mints lock ids. Per-instance, not process-global: ids are
	// fixed-width so a global counter cannot skew timing the way the
	// store-id counter did, but replayed runs should still mint
	// identical ids.
	lockSeq uint64

	// QoS state (qos.go).
	qos qosState

	// Failure state (membership.go, failover.go). stopped is set while
	// the node is crashed; epoch/deadView are this instance's view of
	// the manager's membership broadcasts, deadView indexed by node id.
	stopped  bool
	epoch    uint64
	deadView []bool

	// wake is the adaptive thread model's state (wake.go).
	wake wakeRule
}

// Deployment is a LITE cluster: one Instance per node plus the global
// name directory hosted at the manager node.
type Deployment struct {
	Cluster   *cluster.Cluster
	Instances []*Instance
	opts      Options

	// directory is the manager-node name service (§3.3). Lookups from
	// other nodes pay an RPC round trip to the manager.
	directory map[string]*lmrState
	nextLMRID uint64
	appSeq    uint64
	barriers  map[uint64]*barrierState
	qsig      qosSignals

	// memb is the manager's authoritative membership view (modeled as
	// surviving manager restarts, as on the paper's HA node pair).
	memb membState

	// tenantW maps a registered tenant ID to its QoS weight: weight w
	// earns w shares of every function's admission budget. Unregistered
	// tenants default to weight 1. Registration happens at deployment
	// setup (internal/tenant.Registry.Attach), before traffic flows.
	tenantW map[uint16]int64
}

// SetTenantWeight registers tenant id with QoS weight w (floored at
// 1). Tenant 0 is the kernel/untenanted class and cannot be weighted.
func (d *Deployment) SetTenantWeight(id uint16, w int) {
	if id == 0 {
		return
	}
	if w < 1 {
		w = 1
	}
	if d.tenantW == nil {
		d.tenantW = make(map[uint16]int64)
	}
	d.tenantW[id] = int64(w)
}

// tenantWeight returns tenant id's registered QoS weight, defaulting
// to 1 for tenants that never registered one.
func (d *Deployment) tenantWeight(id uint16) int64 {
	if w, ok := d.tenantW[id]; ok {
		return w
	}
	return 1
}

// meshedPair normalizes a MeshPeers query to the unordered (low, high)
// form the predicate is specified over.
func meshedPair(mesh func(a, b int) bool, x, y int) bool {
	if x > y {
		x, y = y, x
	}
	return mesh(x, y)
}

// Start boots LITE on every node of the cluster: it registers the
// global physical-address MR on each NIC, builds the shared K×N queue
// pair mesh, and starts each node's shared polling thread and
// background header-update thread.
func Start(cls *cluster.Cluster, opts Options) (*Deployment, error) {
	if opts.QPsPerPair < 1 {
		return nil, fmt.Errorf("lite: QPsPerPair must be >= 1")
	}
	if err := validateRingBytes(opts.RingBytes); err != nil {
		return nil, err
	}
	dep := &Deployment{
		Cluster:   cls,
		opts:      opts,
		directory: make(map[string]*lmrState),
		barriers:  make(map[uint64]*barrierState),
	}
	n := len(cls.Nodes)
	for _, nd := range cls.Nodes {
		inst := &Instance{
			cls:         cls,
			node:        nd,
			opts:        opts,
			cfg:         cls.Cfg,
			dep:         dep,
			ctx:         verbs.Open(nd.NIC, nd.KernelAS),
			qpSig:       make([][]*qpSigState, n),
			nextQP:      make([]int, n),
			lhs:         []*lhEntry{nil},
			localLMR:    make(map[uint64]*lmrState),
			funcs:       make(map[int]*rpcFunc),
			headUpd:     simtime.NewChan[headUpdate](4096),
			locks:       make(map[uint64]*lockState),
			deadView:    make([]bool, n),
			own:         newOwnerView(nd.ID),
			adopted:     make(map[bindKey]*adoptedWindow),
			onAdoptFrom: make(map[migKey]AdoptFunc),
		}
		inst.lease.init(&opts, n, nd.ID)
		inst.qos.init(inst, opts.QPsPerPair, &dep.qsig)
		// One global MR per node covering all of physical memory,
		// registered with physical addresses (§4.1): one lkey/rkey, no
		// PTEs on the NIC, no pinning pass.
		mr, err := nd.NIC.RegisterPhysMR(nd.KernelAS, 0, nd.Mem.TotalBytes(), rnic.PermRead|rnic.PermWrite|rnic.PermAtomic)
		if err != nil {
			return nil, err
		}
		inst.globalMR = mr
		inst.sendCQ = nd.NIC.CreateCQ()
		inst.sendDisp = verbs.NewDispatcher(inst.sendCQ)
		inst.recvCQ = nd.NIC.CreateCQ()
		inst.recvCQ.SetDeliver(inst.prewakeWorker)
		if err := inst.initScratch(); err != nil {
			return nil, err
		}
		dep.Instances = append(dep.Instances, inst)
	}
	// Shared QP mesh: K QPs per node pair, all completing into the
	// owning node's single shared send CQ / receive CQ.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if opts.MeshPeers != nil && !opts.MeshPeers(i, j) {
				continue
			}
			a, b := dep.Instances[i], dep.Instances[j]
			for k := 0; k < opts.QPsPerPair; k++ {
				qa := a.node.NIC.CreateQP(rnic.RC, a.sendCQ, a.recvCQ)
				qb := b.node.NIC.CreateQP(rnic.RC, b.sendCQ, b.recvCQ)
				qa.SetOwner("lite/shared-mesh")
				qb.SetOwner("lite/shared-mesh")
				qa.SetRecvLowWater(opts.RecvBatch/2, a.noteLowRecv)
				qb.SetRecvLowWater(opts.RecvBatch/2, b.noteLowRecv)
				qa.Connect(j, qb.QPN())
				qb.Connect(i, qa.QPN())
				a.qpSig[j] = append(a.qpSig[j], &qpSigState{qp: qa, sq: newSendQueue[outboxed]()})
				b.qpSig[i] = append(b.qpSig[i], &qpSigState{qp: qb, sq: newSendQueue[outboxed]()})
			}
		}
	}
	// Control rings for internal RPC (binding setup, naming, memory
	// ops, locking) are established as part of cluster bootstrap.
	for _, inst := range dep.Instances {
		inst.registerSystemFuncs()
	}
	for _, inst := range dep.Instances {
		for _, other := range dep.Instances {
			if other == inst {
				continue
			}
			if opts.MeshPeers != nil && !meshedPair(opts.MeshPeers, inst.node.ID, other.node.ID) {
				continue
			}
			if err := inst.setupBinding(other.node.ID, funcControl); err != nil {
				return nil, err
			}
		}
	}
	// Per-node daemons: shared poller, IMM-buffer reposter (folded into
	// the poller), header-update sender, and system RPC workers.
	for _, inst := range dep.Instances {
		inst.topUpRecvs(nil)
		inst.spawnDaemons()
	}
	// Node-failure plumbing: crash/restart hooks on the cluster, and
	// the manager's heartbeat probers when failure detection is on.
	dep.memb = membState{dead: make(map[int]bool), miss: make(map[int]int), own: newOwnerTable()}
	dep.attachFailover()
	if opts.HeartbeatInterval > 0 {
		mgr := dep.Instances[managerNode]
		for _, inst := range dep.Instances {
			if inst == mgr {
				continue
			}
			target := inst.node.ID
			cls.GoDaemonOn(mgr.node.ID, "lite-prober", func(p *simtime.Proc) {
				mgr.proberLoop(p, target)
			})
		}
	}
	return dep, nil
}

// spawnDaemons starts (or, after a restart, restarts) the per-node
// background threads.
func (i *Instance) spawnDaemons() {
	i.cls.GoDaemonOn(i.node.ID, "lite-poller", i.pollerLoop)
	i.cls.GoDaemonOn(i.node.ID, "lite-headupd", i.headUpdateLoop)
	for w := 0; w < systemWorkers; w++ {
		i.cls.GoDaemonOn(i.node.ID, "lite-sys", i.systemWorkerLoop)
	}
}

// systemWorkers is the number of kernel worker threads per node that
// execute LITE-internal RPC handlers.
const systemWorkers = 4

// scratchBytes is the size of each node's scratch arena, used for
// response buffers and internal operations.
const scratchBytes = 64 << 20

// qpSigState is one shared QP and its send-queue slots.
type qpSigState struct {
	qp *rnic.QP
	sq sendQueue[outboxed]
}

// outboxed is one WR chain queued for a full send queue: a two-sided
// chain (its own copy, payloads too), posted into one slot under the
// signaling rule, or a one-sided caller's single signaled WR.
type outboxed struct {
	wrs     []rnic.WR
	oneSide bool
}

// CheckSendQueues reports a shared QP whose slot ledger is off, or that
// a one-sided chain holds or whose outbox holds chains: a check for
// quiescence (sendQueue.settled).
func (d *Deployment) CheckSendQueues() error {
	for _, inst := range d.Instances {
		for dst, sigs := range inst.qpSig {
			for k, s := range sigs {
				if err := s.sq.settled(); err != nil {
					return fmt.Errorf("lite: QP %d->%d[%d]: %v", inst.node.ID, dst, k, err)
				}
			}
		}
	}
	return nil
}

// Instance returns the deployment's instance at the given node.
func (d *Deployment) Instance(node int) *Instance { return d.Instances[node] }

// NextAppSeq hands out deployment-scoped sequence numbers for
// applications to build unique identifiers from (store ids, shard
// names). Scoped to the deployment, not the process: a process-global
// counter leaks state between simulation runs — identifiers grow one
// digit wider, every message carrying one grows a byte, and a
// supposedly seed-identical replay drifts by a few nanoseconds of
// serialization time per message. The rebalance stress run flushed
// exactly that out of the kvstore's store-id counter.
func (d *Deployment) NextAppSeq() uint64 {
	d.appSeq++
	return d.appSeq
}

// wrID returns a fresh work-request id.
func (i *Instance) wrID() uint64 {
	i.nextWR++
	return i.nextWR
}

// scratchRing is a bump allocator over a contiguous kernel arena used
// for response buffers and internal staging. Allocations are 64-byte
// aligned and the ring wraps; reply buffers of timed-out RPCs are
// quarantined (the server's late reply write-imm may still be in
// flight) and the allocator steps around them until the reply lands or
// the membership epoch advances past the call.
type scratchRing struct {
	base hostmem.PAddr
	size int64
	next int64

	quar      []quarRange
	quarBytes int64
	// evicted collects tokens whose quarantine the safety valve
	// force-released; the owner drops their pending entries.
	evicted []uint32
	// Evictions counts safety-valve releases, for diagnostics: nonzero
	// means a reply buffer was reused while a late reply could still
	// have been in flight.
	Evictions int64
}

// quarRange is one quarantined reply buffer: [start, end) offsets into
// the arena, the pending token that owns it, and the membership epoch
// at which the owning call timed out.
type quarRange struct {
	start, end int64
	token      uint32
	epoch      uint64
}

func (i *Instance) initScratch() error {
	pa, err := i.node.Mem.AllocContiguous(scratchBytes)
	if err != nil {
		return err
	}
	i.scratch = scratchRing{base: pa, size: scratchBytes}
	return nil
}

func (s *scratchRing) alloc(n int64) hostmem.PAddr {
	n = scratchExtent(n)
	wraps := 0
	for {
		if s.next+n > s.size {
			s.next = 0
			wraps++
			// Two full wraps without finding a gap means quarantined
			// buffers are starving the arena; reclaim the oldest.
			if wraps >= 2 {
				s.evictOldest()
				wraps = 0
			}
		}
		if q, hit := s.overlap(s.next, s.next+n); hit {
			s.next = (q.end + 63) &^ 63
			if s.quarBytes > s.size/2 {
				s.evictOldest()
			}
			continue
		}
		pa := s.base + hostmem.PAddr(s.next)
		s.next += n
		return pa
	}
}

// scratchExtent is the arena space an n-byte buffer owns: whole
// 64-byte lines, and at least one even for a zero-reply call, since a
// shed notification may write an 8-byte Retry-After hint into any
// reply buffer.
func scratchExtent(n int64) int64 { return (max(n, 64) + 63) &^ 63 }

// overlap returns the quarantined range intersecting [start, end), if
// any.
func (s *scratchRing) overlap(start, end int64) (quarRange, bool) {
	for _, q := range s.quar {
		if start < q.end && q.start < end {
			return q, true
		}
	}
	return quarRange{}, false
}

// quarantine marks a reply buffer unusable until release. Every reply
// buffer owns at least one cache line (see alloc), and even a
// zero-reply call's buffer can still receive a late 8-byte shed hint,
// so the minimum is quarantined too.
func (s *scratchRing) quarantine(pa hostmem.PAddr, n int64, token uint32, epoch uint64) {
	n = scratchExtent(n)
	start := int64(pa - s.base)
	s.quar = append(s.quar, quarRange{start: start, end: start + n, token: token, epoch: epoch})
	s.quarBytes += n
}

// release frees the quarantined buffer owned by token, if present.
func (s *scratchRing) release(token uint32) {
	for k, q := range s.quar {
		if q.token == token {
			s.quarBytes -= q.end - q.start
			s.quar = append(s.quar[:k], s.quar[k+1:]...)
			return
		}
	}
}

// releaseBefore frees every quarantine installed before the given
// membership epoch (any in-flight reply from those calls was sent by a
// since-declared-dead or since-restarted peer) and returns their
// tokens.
func (s *scratchRing) releaseBefore(epoch uint64) []uint32 {
	var toks []uint32
	kept := s.quar[:0]
	for _, q := range s.quar {
		if q.epoch < epoch {
			s.quarBytes -= q.end - q.start
			toks = append(toks, q.token)
			continue
		}
		kept = append(kept, q)
	}
	s.quar = kept
	return toks
}

// evictOldest is the safety valve: if quarantines accumulate without
// any reply or epoch advance ever releasing them, drop the oldest so
// the arena cannot be starved. The hazard window this reopens is
// counted in Evictions.
func (s *scratchRing) evictOldest() {
	if len(s.quar) == 0 {
		return
	}
	q := s.quar[0]
	s.quar = s.quar[1:]
	s.quarBytes -= q.end - q.start
	s.evicted = append(s.evicted, q.token)
	s.Evictions++
}

// scratchAlloc is the instance-level allocator entry point: it
// allocates from the ring and drops the pending entries of any
// quarantines the safety valve evicted.
func (i *Instance) scratchAlloc(n int64) hostmem.PAddr {
	pa := i.scratch.alloc(n)
	if len(i.scratch.evicted) > 0 {
		for _, tok := range i.scratch.evicted {
			i.pending.del(tok)
		}
		i.scratch.evicted = i.scratch.evicted[:0]
	}
	return pa
}

// scratchDone gives back the contents of an answered call's n-byte
// reply buffer at pa once the caller has read it: the arena only
// reuses the space after a full wrap, and until then the host need not
// hold the bytes (hostmem.Discard).
func (i *Instance) scratchDone(pa hostmem.PAddr, n int64) {
	_ = i.node.Mem.Discard(pa, scratchExtent(n))
}

// memcpyCost charges the calling thread for an n-byte host memory copy.
func (i *Instance) memcpyCost(p *simtime.Proc, n int64) {
	p.Work(params.TransferTime(n, i.cfg.MemcpyBandwidth))
}
