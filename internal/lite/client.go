package lite

import (
	"lite/internal/hostmem"
	"lite/internal/simtime"
)

// Client is a process's handle on LITE — the public API of Table 1.
//
// A kernel client calls straight into the indirection tier (LITE
// serves kernel-level applications directly); a user client pays the
// user/kernel boundary costs, with the §5.2 optimizations applied to
// the RPC path (only entry crossings on the critical path, results
// returned through the shared completion page).
type Client struct {
	inst   *Instance
	kernel bool
	pri    Priority

	// tenant scopes every LMR/handle operation and outbound RPC of
	// this client to a tenant namespace. Zero (the default) is the
	// kernel/untenanted class: it bypasses tenant checks, like a root
	// process. Nonzero tenants cannot touch another tenant's handles
	// and are admitted under their registered QoS weight.
	tenant uint16
}

// caller is what the RPC path needs to know about the client behind a
// call: the tenant whose namespace and QoS weight apply (0 = kernel /
// untenanted), and whether the thread came from user level — a
// user-level caller is back in user space while it waits (§5.2), a
// kernel-level one waits inside the kernel. The zero value is LITE's
// own kernel threads.
type caller struct {
	tenant uint16
	user   bool
}

func (c *Client) who() caller { return caller{tenant: c.tenant, user: !c.kernel} }

// KernelClient returns a kernel-level client of this instance.
func (i *Instance) KernelClient() *Client { return &Client{inst: i, kernel: true} }

// UserClient returns a user-level client of this instance.
func (i *Instance) UserClient() *Client { return &Client{inst: i} }

// TenantClient returns a client scoped to tenant t's namespace. LMRs
// it creates are owned by t, handles it acquires are stamped t, and
// its RPCs carry t in the ring header so servers apply t's QoS weight.
// TenantClient(0) is equivalent to KernelClient.
func (i *Instance) TenantClient(t uint16) *Client {
	if t != 0 {
		i.obsReg().Add("lite.tenant.clients", 1)
	}
	return &Client{inst: i, kernel: true, tenant: t}
}

// Tenant returns the tenant ID this client is scoped to (0 = kernel).
func (c *Client) Tenant() uint16 { return c.tenant }

// Instance returns the underlying LITE instance.
func (c *Client) Instance() *Instance { return c.inst }

// NodeID returns the node this client runs on.
func (c *Client) NodeID() int { return c.inst.node.ID }

// SetPriority tags all subsequent operations of this client with the
// given QoS priority and returns the client.
func (c *Client) SetPriority(pri Priority) *Client {
	c.pri = pri
	return c
}

// syscall wraps fn in a full syscall round trip for user clients.
func (c *Client) syscall(p *simtime.Proc, fn func()) {
	if c.kernel {
		fn()
		return
	}
	c.inst.node.OS.Syscall(p, fn)
}

// enter charges only the kernel-entry crossing (the return is hidden
// behind the shared completion page; §5.2).
func (c *Client) enter(p *simtime.Proc) {
	if !c.kernel {
		c.inst.node.OS.EnterKernel(p)
	}
}

// Malloc implements LT_malloc on the local node: allocate an LMR of
// the given size, optionally registering a global name ("" for an
// anonymous LMR). The caller becomes the LMR's master.
func (c *Client) Malloc(p *simtime.Proc, size int64, name string, defPerm Perm) (LH, error) {
	return c.MallocAt(p, []int{c.inst.node.ID}, size, name, defPerm)
}

// MallocAt is LT_malloc with explicit physical placement: the LMR's
// chunks are spread round-robin over homeNodes (masters choose where
// an LMR lives, and an LMR may span machines; §4.1).
func (c *Client) MallocAt(p *simtime.Proc, homeNodes []int, size int64, name string, defPerm Perm) (LH, error) {
	var h LH
	var err error
	c.syscall(p, func() { h, err = c.inst.mallocInternal(p, homeNodes, size, name, defPerm, c.pri, c.tenant) })
	return h, err
}

// RegisterLMR registers already-allocated physically contiguous memory
// as an LMR (a master capability; §4.1).
func (c *Client) RegisterLMR(p *simtime.Proc, pa hostmem.PAddr, size int64, name string, defPerm Perm) (LH, error) {
	var h LH
	var err error
	c.syscall(p, func() { h, err = c.inst.registerLMRInternal(p, pa, size, name, defPerm, c.pri, c.tenant) })
	return h, err
}

// Free implements LT_free: master-only; releases the LMR and notifies
// every node that mapped it.
func (c *Client) Free(p *simtime.Proc, h LH) error {
	var err error
	c.syscall(p, func() { err = c.inst.freeInternal(p, h, c.pri, c.tenant) })
	return err
}

// Map implements LT_map: acquire an lh for the LMR registered under
// name, with the permission its master grants this node.
func (c *Client) Map(p *simtime.Proc, name string) (LH, error) {
	var h LH
	var err error
	c.syscall(p, func() { h, err = c.inst.mapInternal(p, name, c.pri, c.tenant) })
	return h, err
}

// Unmap implements LT_unmap: drop the lh and its local metadata.
func (c *Client) Unmap(p *simtime.Proc, h LH) error {
	var err error
	c.syscall(p, func() { err = c.inst.unmapInternal(p, h, c.pri, c.tenant) })
	return err
}

// Grant sets another node's permission on the LMR (master only). Use
// it to hand out read/write or even the master role itself.
func (c *Client) Grant(p *simtime.Proc, h LH, node int, perm Perm) error {
	var err error
	c.syscall(p, func() { err = c.inst.grantInternal(p, h, node, perm, c.tenant) })
	return err
}

// Move relocates the LMR's storage to another node (master only).
func (c *Client) Move(p *simtime.Proc, h LH, node int) error {
	var err error
	c.syscall(p, func() { err = c.inst.moveInternal(p, h, node, c.pri, c.tenant) })
	return err
}

// Read implements LT_read: read LMR space into buf; returns when the
// data is present (no separate completion polling; §4.2).
func (c *Client) Read(p *simtime.Proc, h LH, off int64, buf []byte) error {
	var err error
	c.syscall(p, func() { err = c.inst.readInternal(p, h, off, buf, c.pri, c.tenant) })
	return err
}

// ReadV implements vectored LT_read: every segment is read into its
// Buf under one kernel entry, and the remote segments on one node go
// out as a single WR chain — one doorbell, one completion — instead of
// one round trip each. Segments are checked like Read (a bad segment
// fails the whole vector before anything is read) and are read in the
// order given, so a later segment can validate an earlier one; a vector
// spanning several remote nodes is split into one chain per run of
// same-node segments.
func (c *Client) ReadV(p *simtime.Proc, segs []ReadSeg) error {
	var err error
	c.syscall(p, func() { err = c.inst.readVInternal(p, segs, c.pri, c.tenant) })
	return err
}

// Write implements LT_write symmetrically to Read.
func (c *Client) Write(p *simtime.Proc, h LH, off int64, data []byte) error {
	var err error
	c.syscall(p, func() { err = c.inst.writeInternal(p, h, off, data, c.pri, c.tenant) })
	return err
}

// Memset implements LT_memset: set n bytes at off to val.
func (c *Client) Memset(p *simtime.Proc, h LH, off int64, val byte, n int64) error {
	var err error
	c.syscall(p, func() { err = c.inst.memsetInternal(p, h, off, val, n, c.pri, c.tenant) })
	return err
}

// Memcpy implements LT_memcpy between two LMRs (possibly on different
// nodes; the transfer happens where the data lives, §7.1).
func (c *Client) Memcpy(p *simtime.Proc, dst LH, dstOff int64, src LH, srcOff, n int64) error {
	var err error
	c.syscall(p, func() { err = c.inst.memcpyInternal(p, dst, dstOff, src, srcOff, n, c.pri, c.tenant) })
	return err
}

// Memmove implements LT_memmove; like its POSIX counterpart it is safe
// for overlapping ranges within one LMR because the source is staged
// before the destination is written.
func (c *Client) Memmove(p *simtime.Proc, dst LH, dstOff int64, src LH, srcOff, n int64) error {
	return c.Memcpy(p, dst, dstOff, src, srcOff, n)
}

// FetchAdd implements LT_fetch-add on an 8-byte word of an LMR and
// returns the previous value.
func (c *Client) FetchAdd(p *simtime.Proc, h LH, off int64, delta uint64) (uint64, error) {
	var v uint64
	var err error
	c.syscall(p, func() { v, err = c.inst.fetchAddInternal(p, h, off, delta, c.pri, c.tenant) })
	return v, err
}

// TestSet implements LT_test-set: atomically set the word to val if it
// was zero; returns the previous value (zero means the set succeeded).
func (c *Client) TestSet(p *simtime.Proc, h LH, off int64, val uint64) (uint64, error) {
	var v uint64
	var err error
	c.syscall(p, func() { v, err = c.inst.testSetInternal(p, h, off, val, c.pri, c.tenant) })
	return v, err
}

// AllocLock creates a distributed lock hosted at owner.
func (c *Client) AllocLock(p *simtime.Proc, owner int) (Lock, error) {
	var lk Lock
	var err error
	c.syscall(p, func() { lk, err = c.inst.allocLockInternal(p, owner, c.pri) })
	return lk, err
}

// LockAcquire implements LT_lock.
func (c *Client) LockAcquire(p *simtime.Proc, lk Lock) error {
	var err error
	c.enter(p)
	err = c.inst.lockInternal(p, lk, c.pri)
	return err
}

// LockRelease implements LT_unlock.
func (c *Client) LockRelease(p *simtime.Proc, lk Lock) error {
	var err error
	c.syscall(p, func() { err = c.inst.unlockInternal(p, lk, c.pri) })
	return err
}

// Barrier implements LT_barrier: block until n participants have
// arrived at barrier id.
func (c *Client) Barrier(p *simtime.Proc, id uint64, n int) error {
	c.enter(p)
	return c.inst.barrierInternal(p, id, n, c.pri)
}

// RegisterRPC registers an RPC function ID served from this node.
func (c *Client) RegisterRPC(id int) error { return c.inst.RegisterRPC(id) }

// RPC implements LT_RPC: call function fn at node dst with input and
// return the reply (at most maxReply bytes). On the user level only
// the kernel-entry crossing sits on the critical path (§5.2).
func (c *Client) RPC(p *simtime.Proc, dst, fn int, input []byte, maxReply int64) ([]byte, error) {
	reg := c.inst.obsReg()
	t0 := p.Now()
	end := c.inst.rootSpan(p, "lite.rpc")
	c.enter(p)
	out, err := c.inst.rpcInternalFull(p, dst, fn, input, maxReply, c.pri, c.inst.opts.RPCTimeout, false, nil, c.who())
	end()
	reg.Add("lite.rpc.calls", 1)
	if err != nil {
		reg.Add("lite.rpc.errors", 1)
	} else {
		reg.Observe("lite.rpc.latency", p.Now()-t0)
	}
	return out, err
}

// RecvRPC implements LT_recvRPC: receive the next call to fn.
func (c *Client) RecvRPC(p *simtime.Proc, fn int) (*Call, error) {
	c.enter(p)
	return c.inst.recvRPCInternal(p, fn)
}

// ReplyRPC implements LT_replyRPC: send the function result back to
// the caller. It may be invoked from any thread, once per call.
func (c *Client) ReplyRPC(p *simtime.Proc, call *Call, output []byte) error {
	end := c.inst.rootSpan(p, "lite.rpc.server")
	c.enter(p)
	err := c.inst.replyRPCInternal(p, call, output, c.pri)
	end()
	return err
}

// ReplyRecvRPC combines LT_replyRPC and LT_recvRPC in one boundary
// crossing — the optional API §5.2 adds for server loops. The server
// span closes once the reply is posted: the wait for the next call is
// idle time, not part of serving this one.
func (c *Client) ReplyRecvRPC(p *simtime.Proc, call *Call, output []byte, fn int) (*Call, error) {
	end := c.inst.rootSpan(p, "lite.rpc.server")
	c.enter(p)
	err := c.inst.replyRPCInternal(p, call, output, c.pri)
	end()
	if err != nil {
		return nil, err
	}
	return c.inst.recvRPCInternal(p, fn)
}

// Send implements LT_send: a one-way message to a node.
func (c *Client) Send(p *simtime.Proc, dst int, data []byte) error {
	var err error
	c.syscall(p, func() { err = c.inst.sendInternal(p, dst, data, c.pri) })
	return err
}

// Recv receives the next LT_send message addressed to this node.
func (c *Client) Recv(p *simtime.Proc) (Message, error) {
	c.enter(p)
	return c.inst.recvInternal(p)
}

// TryRecv returns a queued message without blocking.
func (c *Client) TryRecv(p *simtime.Proc) (Message, bool) {
	var m Message
	var ok bool
	c.syscall(p, func() { m, ok = c.inst.tryRecvInternal(p) })
	return m, ok
}
