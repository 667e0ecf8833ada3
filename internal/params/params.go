// Package params is the single source of truth for the simulation cost
// model. Every simulated component (fabric, RNIC, host OS, TCP stack,
// memory system) reads its constants from a Config so that all stacks
// share one calibration.
//
// The default values were calibrated once against the absolute scale of
// the paper's microbenchmarks (Figures 4-8 of Tsai & Zhang, SOSP'17:
// 40 Gbps ConnectX-3 InfiniBand, Xeon E5-2620 hosts); every other
// experiment in the repository is emergent from these constants.
package params

import "time"

// Config holds every cost-model constant. Zero values are invalid; use
// Default and modify fields as needed.
type Config struct {
	// ---- Fabric ----

	// LinkBandwidth is the per-direction link goodput in bytes/second
	// (40 Gbps signaling => ~4.2 GB/s of payload goodput).
	LinkBandwidth float64
	// PropagationDelay is the one-way cable+PHY propagation latency.
	PropagationDelay time.Duration
	// SwitchDelay is the per-hop switching latency.
	SwitchDelay time.Duration
	// ClosLeafNodes is the number of host ports per leaf switch in the
	// two-tier Clos topology. Zero (the default) keeps the original
	// single non-blocking switch — the degenerate config every
	// paper-sized experiment uses. Nodes map to leaves in contiguous
	// blocks: leaf = node / ClosLeafNodes.
	ClosLeafNodes int
	// ClosSpines is the number of spine switches (equivalently, the
	// number of uplinks per leaf). Cross-leaf flows are spread over
	// the spines by deterministic flow-keyed ECMP. Values below one
	// are treated as one. Ignored when ClosLeafNodes is zero.
	ClosSpines int
	// ClosUplinkBandwidth is the per-direction bandwidth of one
	// leaf<->spine uplink in bytes/s. Zero means LinkBandwidth. The
	// leaf oversubscription ratio is then
	// ClosLeafNodes*LinkBandwidth / (ClosSpines*ClosUplinkBandwidth);
	// see Config.ClosOversubscription.
	ClosUplinkBandwidth float64

	// ---- RNIC ----

	// NICProcess is the per-WQE processing time in the NIC pipeline
	// (each direction).
	NICProcess time.Duration
	// NICDoorbell is the PIO cost of ringing the NIC doorbell from the
	// host CPU (charged to the posting thread).
	NICDoorbell time.Duration
	// MaxInline is the largest payload (bytes) that can ride inside the
	// WQE itself. Inline sends are PIO-copied by the posting CPU
	// (charged at InlineBandwidth) and skip the NIC's payload DMA read
	// entirely — the HERD/FaSST-style small-message fast path.
	MaxInline int
	// InlineBandwidth is the effective host bandwidth of write-combined
	// PIO stores when building an inline WQE, in bytes/s (charged to
	// the posting thread, per byte of inline payload).
	InlineBandwidth float64
	// NICInlineProcess is the per-WQE NIC processing time for inline
	// WQEs. It is lower than NICProcess because the doorbell write
	// carries the whole WQE (BlueFlame-style), so the NIC skips its
	// DMA fetch of the WQE and gather list from the host send queue.
	NICInlineProcess time.Duration
	// DMABandwidth is the NIC<->host DMA engine bandwidth in bytes/s.
	DMABandwidth float64
	// MRKeyCacheEntries is the number of memory-region protection keys
	// (lkey/rkey + base/bounds) the NIC SRAM can hold.
	MRKeyCacheEntries int
	// MRKeyMissBase is the base penalty for fetching an MR key from
	// host memory on an SRAM miss.
	MRKeyMissBase time.Duration
	// MRKeyMissPerLog2 grows the miss penalty with the host-side table
	// size (hash/radix walk gets deeper as the table grows).
	MRKeyMissPerLog2 time.Duration
	// PTECacheBytes is how much mapped memory the NIC's cached page
	// table entries can cover (paper: thrashing above ~4 MB).
	PTECacheBytes int64
	// PTEMiss is the penalty for fetching one PTE from the host.
	PTEMiss time.Duration
	// QPCacheEntries is the number of QP contexts NIC SRAM holds.
	QPCacheEntries int
	// QPMiss is the penalty for reloading an evicted QP context.
	QPMiss time.Duration
	// AtomicProcess is the extra remote-NIC time for an atomic.
	AtomicProcess time.Duration
	// UDHeader is the extra bytes of a UD datagram (GRH).
	UDHeader int
	// RNRRetryDelay is the retry delay when a send finds no posted
	// receive buffer (receiver-not-ready).
	RNRRetryDelay time.Duration
	// RNRRetryMax is how many receiver-not-ready retries are attempted
	// before completing the send in error.
	RNRRetryMax int
	// WireHeader is the per-packet wire header size in bytes (RC).
	WireHeader int
	// AckBytes is the size of an RC acknowledgment on the wire.
	AckBytes int
	// RCTimeout is the reliable-connection transport timeout after
	// which an unacknowledged operation completes in error.
	RCTimeout time.Duration
	// QPConnectTime is the cost of establishing one RC connection the
	// cold way: the rdma_cm exchange (route resolution, REQ/REP/RTU)
	// plus driver-side INIT→RTR→RTS modify_qp transitions. Hundreds of
	// microseconds in practice — the figure KRCORE-style leasing avoids.
	QPConnectTime time.Duration
	// QPLeaseGrant is the cost of leasing an already-established QP
	// from a kernel-resident connection pool: a lookup and an ownership
	// handoff, no wire exchange and no QP state transitions.
	QPLeaseGrant time.Duration

	// ---- Host memory ----

	// PageSize is the host page size in bytes.
	PageSize int64
	// MemcpyBandwidth is host memcpy bandwidth in bytes/s.
	MemcpyBandwidth float64
	// PinPerPage is the per-page cost of pinning (get_user_pages) when
	// registering a virtual-address MR.
	PinPerPage time.Duration
	// UnpinPerPage is the per-page cost of unpinning at deregister.
	UnpinPerPage time.Duration
	// MRRegisterBase is the fixed software cost of (de)registering an
	// MR with the driver.
	MRRegisterBase time.Duration
	// PageAllocPerPage is the kernel page-allocator cost per page for
	// physically contiguous allocations (used by LT_malloc).
	PageAllocPerPage time.Duration

	// ---- Host OS ----

	// SyscallCrossing is the cost of one user<->kernel crossing.
	SyscallCrossing time.Duration
	// KernelDispatch is the fixed in-kernel dispatch cost of a LITE
	// syscall (argument checks, routing to the LITE stack).
	KernelDispatch time.Duration
	// LITECheck is LITE's metadata cost per operation: lh lookup,
	// permission check and address mapping (paper: < 0.3 us total
	// metadata handling; mapping+protection is the dominant part).
	LITECheck time.Duration
	// AdmissionCheck is the per-request cost of the server-side
	// admission gate (bank lookup, cost EWMA update, budget and credit
	// accounting), charged only when a high-water mark is configured.
	AdmissionCheck time.Duration
	// TenantCheck is the extra per-request cost of resolving a tenant
	// tag (credential/namespace and weight lookup), charged on top of
	// AdmissionCheck for requests carrying a nonzero tenant ID.
	TenantCheck time.Duration
	// AdmissionHintCap caps the Retry-After hint carried in a shed
	// notification; a hint is advice about queue drain, not a lease,
	// and must never park a client for longer than a timeout would.
	AdmissionHintCap time.Duration
	// AdmissionBankShares caps a caller's admission credit bank at
	// AdmissionBankShares average calls per unit of QoS weight, so an
	// idle client (or tenant) cannot hoard unbounded admission credit.
	AdmissionBankShares int
	// AdaptivePollWindow is how long the LITE user library busy-checks
	// the shared completion page before sleeping (5.2's adaptive
	// thread model).
	AdaptivePollWindow time.Duration
	// WakeupLatency is the scheduler wakeup cost after a sleep-wait.
	WakeupLatency time.Duration

	// ---- TCP/IP (IPoIB) ----

	// TCPPerMessage is the per-sendmsg software cost (syscall, socket
	// locking, skb setup) on each side.
	TCPPerMessage time.Duration
	// TCPPerPacket is the per-MTU-packet stack cost on each side.
	TCPPerPacket time.Duration
	// TCPMTU is the IPoIB MTU in bytes (connected mode).
	TCPMTU int
	// TCPCopyBandwidth is the effective per-byte software bandwidth of
	// the TCP path (copies, checksums, segmentation combined).
	TCPCopyBandwidth float64
	// TCPWindow caps in-flight bytes per connection.
	TCPWindow int64
}

// Default returns the calibrated cost model.
func Default() Config {
	return Config{
		LinkBandwidth:    4.2e9,
		PropagationDelay: 300 * time.Nanosecond,
		SwitchDelay:      100 * time.Nanosecond,

		NICProcess:        180 * time.Nanosecond,
		NICDoorbell:       100 * time.Nanosecond,
		MaxInline:         256,
		InlineBandwidth:   8e9,
		NICInlineProcess:  100 * time.Nanosecond,
		DMABandwidth:      9e9,
		MRKeyCacheEntries: 128,
		MRKeyMissBase:     900 * time.Nanosecond,
		MRKeyMissPerLog2:  150 * time.Nanosecond,
		PTECacheBytes:     4 << 20,
		PTEMiss:           800 * time.Nanosecond,
		QPCacheEntries:    256,
		QPMiss:            600 * time.Nanosecond,
		AtomicProcess:     500 * time.Nanosecond,
		UDHeader:          40,
		RNRRetryDelay:     2 * time.Microsecond,
		RNRRetryMax:       16,
		WireHeader:        30,
		AckBytes:          16,
		RCTimeout:         4 * time.Millisecond,
		QPConnectTime:     600 * time.Microsecond,
		QPLeaseGrant:      1 * time.Microsecond,

		PageSize:         4096,
		MemcpyBandwidth:  6e9,
		PinPerPage:       400 * time.Nanosecond,
		UnpinPerPage:     250 * time.Nanosecond,
		MRRegisterBase:   4 * time.Microsecond,
		PageAllocPerPage: 30 * time.Nanosecond,

		SyscallCrossing:     85 * time.Nanosecond,
		KernelDispatch:      60 * time.Nanosecond,
		LITECheck:           120 * time.Nanosecond,
		AdmissionCheck:      80 * time.Nanosecond,
		TenantCheck:         15 * time.Nanosecond,
		AdmissionHintCap:    2 * time.Millisecond,
		AdmissionBankShares: 2,
		AdaptivePollWindow:  8 * time.Microsecond,
		WakeupLatency:       1500 * time.Nanosecond,

		TCPPerMessage:    4 * time.Microsecond,
		TCPPerPacket:     5 * time.Microsecond,
		TCPMTU:           65520,
		TCPCopyBandwidth: 1.8e9,
		TCPWindow:        1 << 20,
	}
}

// ClosOversubscription returns the leaf oversubscription ratio: the
// aggregate host-facing bandwidth of one leaf divided by its aggregate
// uplink bandwidth. It is 1 for the single-switch config.
func (c *Config) ClosOversubscription() float64 {
	if c.ClosLeafNodes <= 0 {
		return 1
	}
	spines := c.ClosSpines
	if spines < 1 {
		spines = 1
	}
	up := c.ClosUplinkBandwidth
	if up <= 0 {
		up = c.LinkBandwidth
	}
	return float64(c.ClosLeafNodes) * c.LinkBandwidth / (float64(spines) * up)
}

// TransferTime returns the time to move n bytes at bw bytes/second.
func TransferTime(n int64, bw float64) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Pages returns how many pages of size pageSize the byte range of
// length n spans, assuming page-aligned start.
func Pages(n, pageSize int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + pageSize - 1) / pageSize
}
