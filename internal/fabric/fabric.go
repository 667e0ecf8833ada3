// Package fabric simulates the network fabric connecting a cluster of
// nodes: either a single non-blocking switch (the paper's 40 Gbps
// Mellanox InfiniBand box, and the default) or an oversubscribed
// two-tier leaf/spine Clos for datacenter-scale experiments.
//
// The fabric is a pure timing facility: it owns the per-node egress and
// ingress link occupancies (and, in Clos mode, the per-uplink
// occupancies) and computes, for a packet of a given size posted at a
// given instant, when it starts on the source's egress link and when
// its last byte is available at the destination port. The NIC layers
// (rnic, tcpip) decide what a packet is and what happens at delivery:
// rnic sends an RC message longer than its 4 KB MTU as a train of
// MTU packets, releasing each when the one before it starts on the
// egress, so other messages' packets interleave with it on every link.
// Links are cut-through: a packet's serialization delay is paid once,
// while every link it crosses is occupied for one serialization time
// (so incast, outcast, and uplink contention all queue correctly).
//
// Clos mode is selected by params.Config.ClosLeafNodes > 0: nodes are
// assigned to leaves in contiguous blocks (leaf = node / ClosLeafNodes),
// same-leaf traffic switches at the leaf exactly like the single-switch
// model, and cross-leaf traffic additionally crosses one of ClosSpines
// uplink/downlink pairs chosen by deterministic flow-keyed ECMP
// (detrand hash of src and dst). The single-switch
// model is the degenerate config: with ClosLeafNodes == 0 every path
// takes exactly the original code path and formula.
package fabric

import (
	"fmt"

	"lite/internal/detrand"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// denseLimit bounds port ids: every per-node table is a slice indexed
// by node id, and cluster node ids are contiguous from zero.
const denseLimit = 1 << 16

// Fabric is a simulated network connecting numbered ports.
//
// Observability note: every method of obs.Registry is safe on a nil
// receiver (the zero-cost disabled path), so fabric code calls f.reg
// unguarded rather than wrapping each call in a nil check.
type Fabric struct {
	cfg *params.Config

	// Per-node state is indexed by node id, in [0, denseLimit).
	ports []*port

	// down records unreachable directed pairs for failure injection:
	// lazily allocated per-source rows, plus a count so the reachable
	// fast path skips the lookup entirely when no cut is installed.
	down      [][]bool
	downCount int

	// nodeDown records whole nodes cut from the fabric (both
	// directions of every pair), as when a machine loses power.
	nodeDown      []bool
	nodeDownCount int

	// nodeDelay is extra one-way latency added to any message that
	// touches the node, modeling a degraded ("slow") machine.
	nodeDelay      []simtime.Time
	nodeDelayCount int

	// dropHook, when set, is consulted for every otherwise-reachable
	// packet; returning true silently drops it. Used for
	// probabilistic loss injection.
	dropHook func(at simtime.Time, src, dst int, size int64) bool
	// reg receives fabric counters ("fabric.msgs", "fabric.packets",
	// "fabric.bytes", "fabric.dropped", "fabric.clos.remote") and
	// queueing histograms.
	reg *obs.Registry

	// Clos topology (leafNodes == 0 means single switch).
	leafNodes int
	spines    int
	uplinkBW  float64
	// uplinks[leaf][spine] and downlinks[spine][leaf] are allocated
	// lazily as leaves appear.
	uplinks   [][]*simtime.Server
	downlinks [][]*simtime.Server

	env *simtime.Env // the links' clock; see SetClock
}

type port struct {
	egress  simtime.Server
	ingress simtime.Server
}

// New returns a fabric using the given cost model.
func New(cfg *params.Config) *Fabric {
	f := &Fabric{cfg: cfg}
	if cfg.ClosLeafNodes > 0 {
		f.leafNodes = cfg.ClosLeafNodes
		f.spines = cfg.ClosSpines
		if f.spines < 1 {
			f.spines = 1
		}
		f.uplinkBW = cfg.ClosUplinkBandwidth
		if f.uplinkBW <= 0 {
			f.uplinkBW = cfg.LinkBandwidth
		}
	}
	return f
}

// inRange reports whether node is a valid port id.
func inRange(node int) bool { return node >= 0 && node < denseLimit }

func (f *Fabric) port(node int) *port {
	if node >= 0 && node < len(f.ports) {
		return f.ports[node]
	}
	return nil
}

// AddPort registers a node's port. Adding an existing port, or one
// whose id is outside [0, 65536), is an error.
func (f *Fabric) AddPort(node int) error {
	if !inRange(node) {
		return fmt.Errorf("fabric: port id %d outside [0, %d)", node, denseLimit)
	}
	if f.port(node) != nil {
		return fmt.Errorf("fabric: port %d already exists", node)
	}
	pt := &port{}
	pt.egress.SetClock(f.env)
	pt.ingress.SetClock(f.env)
	for len(f.ports) <= node {
		f.ports = append(f.ports, nil)
	}
	f.ports[node] = pt
	return nil
}

// newLink returns a link server on the fabric's clock.
func (f *Fabric) newLink() *simtime.Server {
	s := &simtime.Server{}
	s.SetClock(f.env)
	return s
}

// SetClock puts the fabric's link servers on env's clock, so each
// keeps only the busy intervals still ahead of it; every ReservePath
// must then be issued at or after env.Now(). Call it before the first
// AddPort. A fabric without a clock (driven by hand-picked instants)
// keeps each link's full history, capped.
func (f *Fabric) SetClock(env *simtime.Env) { f.env = env }

// SetLinkDown makes messages from src to dst undeliverable (in that
// direction only) until SetLinkUp. Used for failure injection. An id
// outside the port range names no port, so there is nothing to cut.
func (f *Fabric) SetLinkDown(src, dst int) {
	if !inRange(src) || !inRange(dst) || f.linkCut(src, dst) {
		return
	}
	f.downCount++
	if f.down == nil {
		f.down = make([][]bool, len(f.ports))
	}
	for len(f.down) <= src {
		f.down = append(f.down, nil)
	}
	row := f.down[src]
	for len(row) <= dst {
		row = append(row, false)
	}
	f.down[src] = row
	row[dst] = true
}

// SetLinkUp restores delivery from src to dst.
func (f *Fabric) SetLinkUp(src, dst int) {
	if !f.linkCut(src, dst) {
		return
	}
	f.downCount--
	f.down[src][dst] = false
}

// linkCut reports whether the directed pair src->dst is cut.
func (f *Fabric) linkCut(src, dst int) bool {
	if f.downCount == 0 {
		return false
	}
	if src >= 0 && src < len(f.down) {
		if row := f.down[src]; dst >= 0 && dst < len(row) {
			return row[dst]
		}
	}
	return false
}

// SetNodeDown cuts a node from the fabric entirely: no message to or
// from it is deliverable until SetNodeUp. This models a machine crash
// (or its top-of-rack port being disabled) without having to
// enumerate directed pairs.
func (f *Fabric) SetNodeDown(node int) {
	if !inRange(node) || f.NodeDown(node) {
		return
	}
	f.nodeDownCount++
	for len(f.nodeDown) <= node {
		f.nodeDown = append(f.nodeDown, false)
	}
	f.nodeDown[node] = true
}

// SetNodeUp restores a node cut by SetNodeDown. Directed link cuts
// installed with SetLinkDown are unaffected.
func (f *Fabric) SetNodeUp(node int) {
	if !f.NodeDown(node) {
		return
	}
	f.nodeDownCount--
	f.nodeDown[node] = false
}

// NodeDown reports whether node is currently cut from the fabric.
func (f *Fabric) NodeDown(node int) bool {
	if f.nodeDownCount == 0 {
		return false
	}
	return node >= 0 && node < len(f.nodeDown) && f.nodeDown[node]
}

// SetNodeDelay injects extra one-way latency on every message sent to
// or from node (a "slow node"). A zero duration removes the injection.
func (f *Fabric) SetNodeDelay(node int, d simtime.Time) {
	if !inRange(node) {
		return
	}
	old := f.delayOf(node)
	if d <= 0 {
		if old != 0 {
			f.nodeDelayCount--
			f.nodeDelay[node] = 0
		}
		return
	}
	if old == 0 {
		f.nodeDelayCount++
	}
	for len(f.nodeDelay) <= node {
		f.nodeDelay = append(f.nodeDelay, 0)
	}
	f.nodeDelay[node] = d
}

// delayOf returns the injected one-way latency for node, or zero.
func (f *Fabric) delayOf(node int) simtime.Time {
	if f.nodeDelayCount == 0 {
		return 0
	}
	if node >= 0 && node < len(f.nodeDelay) {
		return f.nodeDelay[node]
	}
	return 0
}

// SetDropHook installs a predicate consulted for every reachable
// packet; returning true drops the packet as if the path were down.
// Pass nil to remove. Fault injectors use it for seeded probabilistic
// loss.
func (f *Fabric) SetDropHook(h func(at simtime.Time, src, dst int, size int64) bool) {
	f.dropHook = h
}

// SetObs directs the fabric's metrics into the given registry
// (typically a cluster domain's global registry, since the fabric is
// shared). A nil registry disables collection — obs.Registry methods
// are nil-safe, so no call site needs a guard.
func (f *Fabric) SetObs(reg *obs.Registry) { f.reg = reg }

// Reachable reports whether src can currently reach dst.
func (f *Fabric) Reachable(src, dst int) bool {
	if f.port(src) == nil || f.port(dst) == nil {
		return false
	}
	if f.nodeDownCount != 0 && (f.NodeDown(src) || f.NodeDown(dst)) {
		return false
	}
	return !f.linkCut(src, dst)
}

// SpineFor returns the spine switch the flow src->dst is hashed onto,
// or -1 when the path does not cross the spine layer (single-switch
// mode, loopback, or a same-leaf pair). The choice is a pure function
// of (src, dst): deterministic and direction-sensitive,
// like hardware ECMP over a flow 5-tuple.
func (f *Fabric) SpineFor(src, dst int) int {
	if f.leafNodes <= 0 || src == dst || src/f.leafNodes == dst/f.leafNodes {
		return -1
	}
	key := uint64(uint32(src))<<32 ^ uint64(uint32(dst))
	return int(detrand.Mix64(key) % uint64(f.spines))
}

// uplink returns the leaf->spine link server, allocating lazily.
func (f *Fabric) uplink(leaf, spine int) *simtime.Server {
	for len(f.uplinks) <= leaf {
		f.uplinks = append(f.uplinks, nil)
	}
	row := f.uplinks[leaf]
	for len(row) <= spine {
		row = append(row, f.newLink())
	}
	f.uplinks[leaf] = row
	return row[spine]
}

// downlink returns the spine->leaf link server, allocating lazily.
func (f *Fabric) downlink(spine, leaf int) *simtime.Server {
	for len(f.downlinks) <= spine {
		f.downlinks = append(f.downlinks, nil)
	}
	row := f.downlinks[spine]
	for len(row) <= leaf {
		row = append(row, f.newLink())
	}
	f.downlinks[spine] = row
	return row[leaf]
}

// ReservePath books transmission of a one-packet message of size bytes
// from src to dst, ready to transmit at time at, and returns the instant
// the last byte has arrived at dst's port. It returns ok=false if the
// path is unreachable, in which case the message must be considered
// lost.
//
// Loopback (src == dst) bypasses the wire entirely and costs only the
// switch-free local turnaround (zero; NIC pipelines still apply).
func (f *Fabric) ReservePath(at simtime.Time, src, dst int, size int64) (simtime.Time, bool) {
	_, done, ok := f.ReservePacket(at, src, dst, size, 0)
	return done, ok
}

// ReservePacket books one packet of size bytes (header included) as
// ReservePath books a message, and also returns the instant the packet
// starts on src's egress link, which paces the release of the packet
// behind it. prev is the instant the message's previous packet leaves
// that link, and zero for a message's first packet: "fabric.msgs"
// counts those, "fabric.packets" counts every packet. Each packet
// consults the drop hook on its own.
func (f *Fabric) ReservePacket(at simtime.Time, src, dst int, size int64, prev simtime.Time) (start, done simtime.Time, ok bool) {
	if !f.Reachable(src, dst) {
		return 0, 0, false
	}
	if src == dst {
		// Loopback never touches the wire, so probabilistic loss does
		// not apply to it.
		return at, at, true
	}
	if f.dropHook != nil && f.dropHook(at, src, dst, size) {
		f.reg.Add("fabric.dropped", 1)
		return 0, 0, false
	}
	sp := f.port(src)
	dp := f.port(dst)
	ser := params.TransferTime(size, f.cfg.LinkBandwidth)
	egressDone := sp.egress.Reserve(at, ser)
	// Cut-through: the head of the message reaches the next hop
	// propagation+switch after it starts leaving the source; each link
	// it crosses is then occupied for one serialization time.
	headArrive := egressDone - ser + f.cfg.PropagationDelay + f.cfg.SwitchDelay
	if f.nodeDelayCount != 0 {
		headArrive += f.delayOf(src) + f.delayOf(dst)
	}
	if spine := f.SpineFor(src, dst); spine >= 0 {
		// Cross-leaf: leaf uplink -> spine -> leaf downlink, each hop
		// adding one propagation+switch delay, with the message
		// serialized onto the (possibly slower, oversubscribed)
		// uplinks at ClosUplinkBandwidth.
		serUp := params.TransferTime(size, f.uplinkBW)
		srcLeaf, dstLeaf := src/f.leafNodes, dst/f.leafNodes
		upDone := f.uplink(srcLeaf, spine).Reserve(headArrive, serUp)
		head2 := upDone - serUp + f.cfg.PropagationDelay + f.cfg.SwitchDelay
		dnDone := f.downlink(spine, dstLeaf).Reserve(head2, serUp)
		f.reg.Add("fabric.clos.remote", 1)
		// Spine wait: time queued for the uplink and downlink beyond
		// the flow's own serialization — the oversubscription signal.
		f.reg.Observe("fabric.clos.spine_wait", (upDone-serUp-headArrive)+(dnDone-serUp-head2))
		headArrive = dnDone - serUp + f.cfg.PropagationDelay + f.cfg.SwitchDelay
	}
	done = dp.ingress.Reserve(headArrive, ser)
	if prev == 0 {
		f.reg.Add("fabric.msgs", 1)
	}
	f.reg.Add("fabric.packets", 1)
	f.reg.Add("fabric.bytes", size)
	// Queue wait: time spent waiting for the egress link behind other
	// messages' packets, beyond the packet's own serialization and its
	// own message's previous packet: contention, not pacing.
	f.reg.Observe("fabric.queue_wait", egressDone-ser-max(at, prev))
	f.reg.Observe("fabric.serialize", ser)
	return egressDone - ser, done, true
}

// EgressBusy returns the total busy time of a node's egress link, for
// utilization reporting.
func (f *Fabric) EgressBusy(node int) simtime.Time {
	if p := f.port(node); p != nil {
		return p.egress.BusyTotal()
	}
	return 0
}

// DownlinkBusy returns the total busy time of the spine->leaf
// downlink, for incast reporting: a fan-in onto one leaf serializes on
// its downlinks, so their busy fraction is the bottleneck signal. Zero
// if the link has carried no traffic (or in single-switch mode).
func (f *Fabric) DownlinkBusy(spine, leaf int) simtime.Time {
	if spine >= 0 && spine < len(f.downlinks) {
		if row := f.downlinks[spine]; leaf >= 0 && leaf < len(row) {
			return row[leaf].BusyTotal()
		}
	}
	return 0
}

// IngressBusy returns the total busy time of a node's ingress link
// (the NIC-side serialization), the counterpart probe to DownlinkBusy:
// an incast is fabric-bound when the victim's downlink busy fraction
// exceeds its NIC ingress busy fraction.
func (f *Fabric) IngressBusy(node int) simtime.Time {
	if p := f.port(node); p != nil {
		return p.ingress.BusyTotal()
	}
	return 0
}
