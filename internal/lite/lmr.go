package lite

import (
	"lite/internal/hostmem"
	"lite/internal/simtime"
)

// Perm is an LMR permission set granted to a user.
type Perm uint8

// Permission bits. Master implies the right to grant permissions,
// move, and free the LMR (§4.1).
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermMaster
)

// LH is a LITE handle: the only entity LITE exposes for an LMR. It is
// local to the node (and conceptually the process) that acquired it;
// passing it to another node is meaningless (§4.1).
type LH uint64

// chunk is one physically contiguous piece of an LMR.
type chunk struct {
	node int
	pa   hostmem.PAddr
	size int64
}

// lmrState is the metadata of one LMR. The authoritative copy lives
// with the master; other nodes obtain it via LT_map and cache it with
// their lh (the paper stores all lh metadata at the requesting node).
type lmrState struct {
	id       uint64
	name     string
	size     int64
	chunks   []chunk
	masters  map[int]bool
	acl      map[int]Perm // per-node grants
	defPerm  Perm         // grant for nodes not in acl
	mappedBy map[int]bool
	freed    bool

	// tenant is the namespace the LMR belongs to: the tenant of the
	// client that created it (0 = kernel/public). A nonzero-tenant LMR
	// can only be mapped or touched by clients of the same tenant (or
	// the kernel); the boundary is checked before the per-node ACL and
	// is not grantable.
	tenant uint16
}

// lhEntry is the per-node state behind an lh.
type lhEntry struct {
	ls     *lmrState
	perm   Perm
	master bool
	// tenant stamps the handle with the namespace of the client that
	// acquired it; a handle is usable only by its acquiring tenant
	// (handles are per-acquirer, so a guessed handle number from
	// another tenant's table fails the check, not just the ACL).
	tenant uint16
}

func (d *Deployment) newLMRID() uint64 {
	d.nextLMRID++
	return d.nextLMRID
}

func (i *Instance) newLH(ls *lmrState, perm Perm, ten uint16) LH {
	i.lhs = append(i.lhs, &lhEntry{ls: ls, perm: perm, master: perm&PermMaster != 0, tenant: ten})
	return LH(len(i.lhs) - 1)
}

// lhEntryOf returns the entry behind h, or nil if h names none.
func (i *Instance) lhEntryOf(h LH) *lhEntry {
	if uint64(h) >= uint64(len(i.lhs)) {
		return nil
	}
	return i.lhs[h]
}

// lookupLH resolves a handle on behalf of tenant ten. This is the
// tenant-namespace chokepoint: every data-path operation (read, write,
// memset, memcpy, atomics) and every master operation (grant, free,
// move) funnels through it, so a tenant presenting a handle it did not
// acquire — including a guessed handle number from another tenant's
// table — is refused with the typed denial before any permission or
// bounds logic runs. The kernel (ten == 0) bypasses the check.
func (i *Instance) lookupLH(h LH, ten uint16) (*lhEntry, error) {
	e := i.lhEntryOf(h)
	if e == nil {
		return nil, ErrBadHandle
	}
	if ten != 0 && e.tenant != ten {
		i.tenantCount(ten, tenObsDenied, false)
		return nil, &TenantDeniedError{Tenant: ten, Owner: e.tenant}
	}
	if e.ls.freed {
		return nil, ErrFreed
	}
	return e, nil
}

// allocChunksLocal allocates size bytes of LMR storage on this node in
// physically contiguous chunks, charging the page-allocator cost.
func (i *Instance) allocChunksLocal(p *simtime.Proc, size int64) ([]chunk, error) {
	var out []chunk
	remain := size
	for remain > 0 {
		n := remain
		if n > i.opts.MaxChunkBytes {
			n = i.opts.MaxChunkBytes
		}
		pa, err := i.node.Mem.AllocContiguous(n)
		if err == hostmem.ErrNoContiguous {
			// Fragmentation: fall back to smaller pieces.
			if n > i.cfg.PageSize {
				n = n / 2
				continue
			}
			return nil, err
		}
		if err != nil {
			return nil, err
		}
		p.Work(simtime.Time((n+i.cfg.PageSize-1)/i.cfg.PageSize) * i.cfg.PageAllocPerPage)
		out = append(out, chunk{node: i.node.ID, pa: pa, size: n})
		remain -= n
	}
	return out, nil
}

// mallocInternal implements LT_malloc: allocate an LMR of the given
// size spread round-robin over homeNodes, optionally register a name
// with the cluster manager, and return a master lh.
func (i *Instance) mallocInternal(p *simtime.Proc, homeNodes []int, size int64, name string, defPerm Perm, pri Priority, ten uint16) (LH, error) {
	if size <= 0 {
		return 0, hostmem.ErrBadSize
	}
	if len(homeNodes) == 0 {
		homeNodes = []int{i.node.ID}
	}
	p.Work(i.cfg.LITECheck)

	// Split into chunks round-robin over the home nodes.
	var sizes []int64
	remain := size
	for remain > 0 {
		n := remain
		if n > i.opts.MaxChunkBytes {
			n = i.opts.MaxChunkBytes
		}
		sizes = append(sizes, n)
		remain -= n
	}
	var chunks []chunk
	for idx, n := range sizes {
		home := homeNodes[idx%len(homeNodes)]
		if home == i.node.ID {
			cs, err := i.allocChunksLocal(p, n)
			if err != nil {
				return 0, err
			}
			chunks = append(chunks, cs...)
		} else {
			pa, err := i.ctlAllocChunk(p, home, n, pri)
			if err != nil {
				return 0, err
			}
			chunks = append(chunks, chunk{node: home, pa: pa, size: n})
		}
	}
	ls := &lmrState{
		id:       i.dep.newLMRID(),
		name:     name,
		size:     size,
		chunks:   chunks,
		masters:  map[int]bool{i.node.ID: true},
		acl:      make(map[int]Perm),
		defPerm:  defPerm,
		mappedBy: map[int]bool{i.node.ID: true},
		tenant:   ten,
	}
	i.localLMR[ls.id] = ls
	if name != "" {
		if err := i.registerName(p, ls, pri); err != nil {
			return 0, err
		}
	}
	return i.newLH(ls, PermRead|PermWrite|PermMaster, ten), nil
}

// registerName publishes the LMR in the manager-node directory; remote
// callers pay an RPC round trip.
func (i *Instance) registerName(p *simtime.Proc, ls *lmrState, pri Priority) error {
	if i.node.ID == managerNode {
		if _, taken := i.dep.directory[ls.name]; taken {
			return ErrNameTaken
		}
		i.dep.directory[ls.name] = ls
		return nil
	}
	return i.ctlRegName(p, ls, pri)
}

// registerLMRInternal registers already-allocated physically
// contiguous memory as an LMR (masters may do this per §4.1).
func (i *Instance) registerLMRInternal(p *simtime.Proc, pa hostmem.PAddr, size int64, name string, defPerm Perm, pri Priority, ten uint16) (LH, error) {
	p.Work(i.cfg.LITECheck)
	ls := &lmrState{
		id:       i.dep.newLMRID(),
		name:     name,
		size:     size,
		chunks:   []chunk{{node: i.node.ID, pa: pa, size: size}},
		masters:  map[int]bool{i.node.ID: true},
		acl:      make(map[int]Perm),
		defPerm:  defPerm,
		mappedBy: map[int]bool{i.node.ID: true},
		tenant:   ten,
	}
	i.localLMR[ls.id] = ls
	if name != "" {
		if err := i.registerName(p, ls, pri); err != nil {
			return 0, err
		}
	}
	return i.newLH(ls, PermRead|PermWrite|PermMaster, ten), nil
}

// mapInternal implements LT_map: resolve a name through the manager
// directory, obtain a grant from a master, and build a fresh local lh.
// LITE generates a new lh for every acquisition (§4.1).
func (i *Instance) mapInternal(p *simtime.Proc, name string, pri Priority, ten uint16) (LH, error) {
	p.Work(i.cfg.LITECheck)
	var ls *lmrState
	if i.node.ID == managerNode {
		ls = i.dep.directory[name]
	} else {
		id, err := i.ctlLookupName(p, name, pri)
		if err != nil {
			return 0, err
		}
		ls = i.dep.lmrByID(id)
	}
	if ls == nil {
		return 0, ErrNoSuchName
	}
	// Tenant namespace boundary, checked before any grant is even
	// requested: a tenant may map its own LMRs and kernel/public ones
	// (tenant 0), never another tenant's. Unlike ErrPermission this is
	// not curable by the owner granting broader ACLs.
	if ten != 0 && ls.tenant != 0 && ls.tenant != ten {
		i.tenantCount(ten, tenObsDenied, false)
		return 0, &TenantDeniedError{Tenant: ten, Owner: ls.tenant}
	}
	// Obtain the grant from a master node.
	var perm Perm
	if ls.masters[i.node.ID] {
		perm = grantFor(ls, i.node.ID)
		ls.mappedBy[i.node.ID] = true
	} else {
		master := i.liveMaster(ls)
		g, err := i.ctlMapRequest(p, master, ls.id, pri)
		if err != nil {
			return 0, err
		}
		perm = g
	}
	if perm == 0 {
		return 0, ErrPermission
	}
	if ls.freed {
		return 0, ErrFreed
	}
	return i.newLH(ls, perm, ten), nil
}

func grantFor(ls *lmrState, node int) Perm {
	if p, ok := ls.acl[node]; ok {
		return p
	}
	return ls.defPerm
}

func anyMaster(ls *lmrState) int {
	best := -1
	for n := range ls.masters {
		if best < 0 || n < best {
			best = n
		}
	}
	return best
}

// liveMaster picks a master this instance's membership view believes
// alive (smallest id for determinism). A migrated LMR keeps its old
// home in masters until that node relinquishes the role, so after the
// old home dies the grant request must go to a surviving master. With
// no live master it falls back to anyMaster and lets the control RPC
// surface the real failure.
func (i *Instance) liveMaster(ls *lmrState) int {
	best := -1
	for n := range ls.masters {
		if i.NodeDead(n) {
			continue
		}
		if best < 0 || n < best {
			best = n
		}
	}
	if best < 0 {
		return anyMaster(ls)
	}
	return best
}

// unmapInternal implements LT_unmap: drop the lh and its metadata and
// inform the master.
func (i *Instance) unmapInternal(p *simtime.Proc, h LH, pri Priority, ten uint16) error {
	e := i.lhEntryOf(h)
	if e == nil {
		return ErrBadHandle
	}
	if ten != 0 && e.tenant != ten {
		i.tenantCount(ten, tenObsDenied, false)
		return &TenantDeniedError{Tenant: ten, Owner: e.tenant}
	}
	p.Work(i.cfg.LITECheck)
	i.lhs[h] = nil
	if !e.ls.masters[i.node.ID] && !e.ls.freed {
		_ = i.ctlUnmapNotify(p, i.liveMaster(e.ls), e.ls.id, pri)
	}
	return nil
}

// grantInternal lets a master set another node's permission (including
// granting the master role; §4.1).
func (i *Instance) grantInternal(p *simtime.Proc, h LH, node int, perm Perm, ten uint16) error {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return err
	}
	if !e.master {
		return ErrNotMaster
	}
	p.Work(i.cfg.LITECheck)
	e.ls.acl[node] = perm
	if perm&PermMaster != 0 {
		e.ls.masters[node] = true
	} else {
		delete(e.ls.masters, node)
	}
	return nil
}

// freeInternal implements LT_free: master-only; notifies every node
// that mapped the LMR and releases its chunks.
func (i *Instance) freeInternal(p *simtime.Proc, h LH, pri Priority, ten uint16) error {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return err
	}
	if !e.master {
		return ErrNotMaster
	}
	p.Work(i.cfg.LITECheck)
	ls := e.ls
	ls.freed = true
	i.lhs[h] = nil
	// Notify nodes that have the LMR mapped (the paper's master keeps
	// this list exactly for free/move notifications).
	for n := range ls.mappedBy {
		if n != i.node.ID {
			_ = i.ctlInvalidate(p, n, ls.id, pri)
		}
	}
	// Release the memory.
	for _, c := range ls.chunks {
		if c.node == i.node.ID {
			if err := i.node.Mem.Free(c.pa, c.size); err != nil {
				return err
			}
		} else {
			if err := i.ctlFreeChunk(p, c.node, c.pa, c.size, pri); err != nil {
				return err
			}
		}
	}
	// Drop the directory entry.
	if ls.name != "" {
		if i.node.ID == managerNode {
			delete(i.dep.directory, ls.name)
		} else {
			_ = i.ctlUnregName(p, ls.name, pri)
		}
	}
	return nil
}

// moveInternal relocates an LMR's storage to another node (a master
// capability the paper lists for load management). Data is copied
// through the network and every mapping node keeps working because lh
// metadata points at the shared authoritative state.
func (i *Instance) moveInternal(p *simtime.Proc, h LH, newNode int, pri Priority, ten uint16) error {
	e, err := i.lookupLH(h, ten)
	if err != nil {
		return err
	}
	if !e.master {
		return ErrNotMaster
	}
	ls := e.ls
	var newChunks []chunk
	buf := make([]byte, 0, i.opts.MaxChunkBytes)
	for _, c := range ls.chunks {
		if c.node == newNode {
			newChunks = append(newChunks, c)
			continue
		}
		var pa hostmem.PAddr
		if newNode == i.node.ID {
			cs, err := i.allocChunksLocal(p, c.size)
			if err != nil {
				return err
			}
			if len(cs) != 1 {
				// Fragmented target: keep the pieces.
				if err := i.copyChunk(p, c, cs, buf, pri); err != nil {
					return err
				}
				newChunks = append(newChunks, cs...)
				i.freeChunk(p, c, pri)
				continue
			}
			pa = cs[0].pa
		} else {
			var err error
			pa, err = i.ctlAllocChunk(p, newNode, c.size, pri)
			if err != nil {
				return err
			}
		}
		nc := chunk{node: newNode, pa: pa, size: c.size}
		if err := i.copyChunk(p, c, []chunk{nc}, buf, pri); err != nil {
			return err
		}
		newChunks = append(newChunks, nc)
		i.freeChunk(p, c, pri)
	}
	ls.chunks = newChunks
	return nil
}

func (i *Instance) freeChunk(p *simtime.Proc, c chunk, pri Priority) {
	if c.node == i.node.ID {
		_ = i.node.Mem.Free(c.pa, c.size)
	} else {
		_ = i.ctlFreeChunk(p, c.node, c.pa, c.size, pri)
	}
}

// lmrByID resolves an LMR id in the deployment-wide table.
func (d *Deployment) lmrByID(id uint64) *lmrState {
	for _, inst := range d.Instances {
		if ls, ok := inst.localLMR[id]; ok {
			return ls
		}
	}
	return nil
}

// LMRSizeByName reports the size of the LMR registered under name, or
// zero if none. It reads the manager directory without cost — a
// stand-in for applications exchanging sizes out of band.
func (d *Deployment) LMRSizeByName(name string) int64 {
	if ls, ok := d.directory[name]; ok {
		return ls.size
	}
	return 0
}
