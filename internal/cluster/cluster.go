// Package cluster assembles the simulated testbed: N nodes, each with
// physical memory, an RDMA NIC, an OS boundary, a TCP/IP (IPoIB)
// stack, and a CPU account, all connected by one switched fabric —
// the shape of the paper's 10-machine InfiniBand cluster.
package cluster

import (
	"fmt"
	"strings"

	"lite/internal/fabric"
	"lite/internal/hostmem"
	"lite/internal/hostos"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/tcpip"
)

// Node is one simulated machine.
type Node struct {
	ID       int
	Mem      *hostmem.Memory
	NIC      *rnic.NIC
	OS       *hostos.OS
	TCP      *tcpip.Stack
	KernelAS *hostmem.AddressSpace
	CPU      *simtime.CPUAccount
	// Obs is the node's metric registry; nil until EnableObs.
	Obs *obs.Registry

	// kinds holds CPU's sub-accounts, one per thread kind (see procKind).
	kinds map[string]*simtime.CPUAccount
}

// procKind is what a proc's CPU is attributed to: its name without a
// trailing instance number, so "lite-serve-7" and "herd-worker3" bill
// "lite-serve" and "herd-worker".
func procKind(name string) string {
	if k := strings.TrimRight(name, "0123456789-"); k != "" {
		return k
	}
	return name
}

// kindCPU returns the node's account for procs named name, created on
// first use. With obs on it mirrors into the counter cpu.<kind>.
func (nd *Node) kindCPU(name string) *simtime.CPUAccount {
	kind := procKind(name)
	a, ok := nd.kinds[kind]
	if !ok {
		a = &simtime.CPUAccount{Parent: nd.CPU, Counter: nd.Obs.Counter("cpu." + kind)}
		nd.kinds[kind] = a
	}
	return a
}

// Cluster is the whole simulated testbed.
type Cluster struct {
	Env   *simtime.Env
	Cfg   *params.Config
	Fab   *fabric.Fabric
	Reg   *rnic.Registry
	Net   *tcpip.Network
	Nodes []*Node

	// Obs is the cluster's observability domain; nil until EnableObs
	// (observability is off by default so the cost model is never
	// perturbed — not that obs would perturb it, but off-by-default
	// keeps the disabled fast path exercised everywhere).
	Obs *obs.Domain

	// down marks crashed nodes (see CrashNode).
	down map[int]bool
	// onDown/onUp run, in registration order, inside CrashNode and
	// RestartNode. Software layers (LITE, apps) register here to stop
	// daemons, fail pending work, and rejoin on restart.
	onDown []func(p *simtime.Proc, node int)
	onUp   []func(p *simtime.Proc, node int)
	// onEvent receives named application events (see Announce). The
	// fault injector listens here to trigger crashes at semantic
	// instants ("the migration just fenced") rather than wall offsets.
	onEvent []func(p *simtime.Proc, name string)
}

// New builds a cluster of n nodes with memPerNode bytes of physical
// memory each.
func New(cfg *params.Config, n int, memPerNode int64) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	env := simtime.NewEnv()
	fab := fabric.New(cfg)
	// Every link server and NIC pipeline runs on the cluster's clock, so
	// its busy list holds only what lies ahead of now.
	fab.SetClock(env)
	c := &Cluster{
		Env:  env,
		Cfg:  cfg,
		Fab:  fab,
		Reg:  rnic.NewRegistry(env, cfg, fab),
		Net:  tcpip.NewNetwork(env, cfg, fab),
		down: make(map[int]bool),
	}
	for i := 0; i < n; i++ {
		mem := hostmem.New(memPerNode, cfg.PageSize)
		nic, err := c.Reg.NewNIC(i, mem)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, &Node{
			ID:       i,
			Mem:      mem,
			NIC:      nic,
			OS:       hostos.New(cfg),
			TCP:      c.Net.Stack(i),
			KernelAS: hostmem.NewAddressSpace(mem),
			CPU:      &simtime.CPUAccount{},
			kinds:    make(map[string]*simtime.CPUAccount),
		})
	}
	return c, nil
}

// EnableObs creates the cluster's observability domain and points
// every layer's collector at it: each node's NIC and OS report into
// that node's registry, the shared fabric into the domain's global
// registry, and each thread kind's CPU into that node's cpu.<kind>
// counter (ns charged from now on). Idempotent, and callable at any
// point in the simulation (layers read their registry pointer on every
// event). Returns the domain for convenience.
func (c *Cluster) EnableObs() *obs.Domain {
	if c.Obs != nil {
		return c.Obs
	}
	c.Obs = obs.NewDomain(len(c.Nodes))
	c.Fab.SetObs(c.Obs.Global())
	for i, nd := range c.Nodes {
		nd.Obs = c.Obs.Node(i)
		nd.NIC.SetObs(nd.Obs)
		nd.OS.SetObs(nd.Obs)
		for kind, a := range nd.kinds {
			a.Counter = nd.Obs.Counter("cpu." + kind)
		}
	}
	return c.Obs
}

// MustNew is New for tests and examples; it panics on error.
func MustNew(cfg *params.Config, n int, memPerNode int64) *Cluster {
	c, err := New(cfg, n, memPerNode)
	if err != nil {
		panic(err)
	}
	return c
}

// GoOn spawns a process logically running on the given node: its CPU
// time accrues to that node's account, attributed to the proc's kind.
func (c *Cluster) GoOn(node int, name string, fn func(*simtime.Proc)) *simtime.Proc {
	acct := c.Nodes[node].kindCPU(name)
	return c.Env.Go(fmt.Sprintf("n%d/%s", node, name), func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		fn(p)
	})
}

// GoDaemonOn is GoOn for daemon processes (background pollers).
func (c *Cluster) GoDaemonOn(node int, name string, fn func(*simtime.Proc)) *simtime.Proc {
	acct := c.Nodes[node].kindCPU(name)
	return c.Env.GoDaemon(fmt.Sprintf("n%d/%s", node, name), func(p *simtime.Proc) {
		p.SetCPUAccount(acct)
		fn(p)
	})
}

// Run executes the simulation to completion.
func (c *Cluster) Run() error { return c.Env.Run() }

// OnNodeDown registers a hook invoked by CrashNode after the node's
// fabric port is cut. Hooks run in registration order in the crashing
// caller's process context.
func (c *Cluster) OnNodeDown(fn func(p *simtime.Proc, node int)) {
	c.onDown = append(c.onDown, fn)
}

// OnNodeUp registers a hook invoked by RestartNode after the node's
// fabric port is restored.
func (c *Cluster) OnNodeUp(fn func(p *simtime.Proc, node int)) {
	c.onUp = append(c.onUp, fn)
}

// OnEvent registers a hook invoked by Announce. Hooks run in
// registration order in the announcing process's context, so anything
// a hook does (including crashing the announcing node) lands at a
// deterministic point in the announcing code path.
func (c *Cluster) OnEvent(fn func(p *simtime.Proc, name string)) {
	c.onEvent = append(c.onEvent, fn)
}

// Announce publishes a named event on the cluster's event bus.
// Software layers call it at semantically meaningful instants (e.g.
// "lite.migrate.fence") so test harnesses can inject faults exactly
// there. With no listeners it is free: no virtual time passes.
func (c *Cluster) Announce(p *simtime.Proc, name string) {
	for _, fn := range c.onEvent {
		fn(p, name)
	}
}

// NodeDown reports whether the node is currently crashed.
func (c *Cluster) NodeDown(node int) bool { return c.down[node] }

// CrashNode fails a machine: its fabric port goes dark (in-flight and
// future messages to or from it are lost, so remote QPs targeting it
// complete with StatusTimeout), then the registered down-hooks run so
// software layers stop the node's daemons and fail its pending work.
// Crashing an already-down node is a no-op.
func (c *Cluster) CrashNode(p *simtime.Proc, node int) {
	if c.down[node] {
		return
	}
	c.down[node] = true
	c.Obs.Global().Add("cluster.crashes", 1)
	c.Fab.SetNodeDown(node)
	for _, fn := range c.onDown {
		fn(p, node)
	}
}

// RestartNode brings a crashed machine back: the fabric port is
// restored and the registered up-hooks run so software layers can
// re-initialize state and rejoin the cluster. Restarting a live node
// is a no-op.
func (c *Cluster) RestartNode(p *simtime.Proc, node int) {
	if !c.down[node] {
		return
	}
	delete(c.down, node)
	c.Obs.Global().Add("cluster.restarts", 1)
	c.Fab.SetNodeUp(node)
	for _, fn := range c.onUp {
		fn(p, node)
	}
}

// TotalCPU returns the summed busy CPU time across all nodes.
func (c *Cluster) TotalCPU() simtime.Time {
	var t simtime.Time
	for _, nd := range c.Nodes {
		t += nd.CPU.Busy()
	}
	return t
}
