// Package dsm implements LITE-DSM, the paper's kernel-level
// distributed shared memory system (§8.4): multiple-reader /
// single-writer pages with release consistency, a home node per page
// (HLRC style, assigned round robin), one-sided LT_reads for remote
// page fetches (readers never inform the home node), LT_write
// write-back at release time, and multicast LT_RPC invalidations —
// the workload that motivated LITE's multicast extension.
package dsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// dsmFn is the RPC function id used for invalidation multicasts.
const dsmFn = lite.FirstUserFunc + 8

// ErrBounds reports an access outside the shared region.
var ErrBounds = errors.New("dsm: access outside the shared region")

// Config tunes the DSM.
type Config struct {
	// PageSize is the coherence granularity.
	PageSize int64
	// FaultOverhead is the cost of a page-fault trap, kernel entry,
	// and mapping update on a miss (LITE-DSM intercepts the page-fault
	// handler).
	FaultOverhead simtime.Time
}

// DefaultConfig returns the standard DSM parameters.
func DefaultConfig() Config {
	return Config{PageSize: 4096, FaultOverhead: 6 * time.Microsecond}
}

// System is one DSM deployment over a set of nodes.
type System struct {
	cls   *cluster.Cluster
	dep   *lite.Deployment
	cfg   Config
	nodes []int
	size  int64
	pages int64
	name  string

	// ends[i] is node nodes[i]'s endpoint.
	ends map[int]*NodeDSM
}

// Boot creates a DSM of the given size across nodes. It must run in a
// simulation process; the caller's node allocates nothing special —
// each home allocates its share. Every participating node gets an
// invalidation server thread.
func Boot(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, nodes []int, size int64, cfg Config) (*System, error) {
	s := &System{
		cls: cls, dep: dep, cfg: cfg, nodes: nodes,
		size: size, name: fmt.Sprintf("dsm%d", dep.NextAppSeq()),
		ends: make(map[int]*NodeDSM),
	}
	s.pages = (size + cfg.PageSize - 1) / cfg.PageSize
	// Home regions, one LMR per node, page-interleaved.
	perNode := (s.pages + int64(len(nodes)) - 1) / int64(len(nodes))
	c0 := dep.Instance(nodes[0]).KernelClient()
	for idx, n := range nodes {
		name := fmt.Sprintf("%s-home-%d", s.name, idx)
		if _, err := c0.MallocAt(p, []int{n}, perNode*cfg.PageSize, name, lite.PermRead|lite.PermWrite); err != nil {
			return nil, err
		}
	}
	for _, n := range nodes {
		end := &NodeDSM{
			sys: s, node: n,
			c:      dep.Instance(n).KernelClient(),
			homeLH: make(map[int]lite.LH),
			cache:  make(map[int64]*cachedPage),
		}
		for idx := range nodes {
			h, err := end.c.Map(p, fmt.Sprintf("%s-home-%d", s.name, idx))
			if err != nil {
				return nil, err
			}
			end.homeLH[idx] = h
		}
		if err := dep.Instance(n).RegisterRPC(dsmFn); err != nil {
			// Another DSM instance already registered the function on
			// this node; both share the server loop below.
			_ = err
		} else {
			nn := n
			cls.GoDaemonOn(n, "dsm-inval", func(q *simtime.Proc) {
				invalidationServer(q, dep, nn, s)
			})
		}
		s.ends[n] = end
	}
	return s, nil
}

// Node returns the endpoint for one participating node.
func (s *System) Node(node int) *NodeDSM { return s.ends[node] }

// homeOf maps a page to (home index, offset inside the home LMR).
func (s *System) homeOf(page int64) (int, int64) {
	idx := int(page % int64(len(s.nodes)))
	return idx, (page / int64(len(s.nodes))) * s.cfg.PageSize
}

// cachedPage is one locally cached shared page. On the first write
// after a fetch a twin copy is taken; at release only the bytes that
// differ from the twin are written back (the classic HLRC twin/diff
// scheme), so two nodes writing disjoint parts of one page do not
// clobber each other.
type cachedPage struct {
	data  []byte
	twin  []byte
	dirty bool
}

// NodeDSM is one node's view of the shared region.
type NodeDSM struct {
	sys    *System
	node   int
	c      *lite.Client
	homeLH map[int]lite.LH
	cache  map[int64]*cachedPage

	// Stats.
	Faults      int64
	Writebacks  int64
	Invalidates int64
}

// fault pulls a page into the local cache with a one-sided LT_read
// (readers never involve the home node's CPU, §8.4).
func (d *NodeDSM) fault(p *simtime.Proc, page int64) (*cachedPage, error) {
	if pg, ok := d.cache[page]; ok {
		return pg, nil
	}
	d.Faults++
	p.Work(d.sys.cfg.FaultOverhead)
	idx, off := d.sys.homeOf(page)
	pg := &cachedPage{data: make([]byte, d.sys.cfg.PageSize)}
	homeNode := d.sys.nodes[idx]
	if homeNode == d.node {
		// Home pages are read in place but still cached for writes.
		if err := d.c.Read(p, d.homeLH[idx], off, pg.data); err != nil {
			return nil, err
		}
	} else if err := d.c.Read(p, d.homeLH[idx], off, pg.data); err != nil {
		return nil, err
	}
	d.cache[page] = pg
	return pg, nil
}

// Read copies len(buf) bytes at offset off of the shared region.
// Cached accesses cost a host memcpy; misses additionally pay the
// page-fault and remote-fetch path.
func (d *NodeDSM) Read(p *simtime.Proc, off int64, buf []byte) error {
	if off < 0 || off+int64(len(buf)) > d.sys.size {
		return ErrBounds
	}
	p.Work(params.TransferTime(int64(len(buf)), params.Default().MemcpyBandwidth))
	ps := d.sys.cfg.PageSize
	for len(buf) > 0 {
		page := off / ps
		po := off % ps
		n := ps - po
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		pg, err := d.fault(p, page)
		if err != nil {
			return err
		}
		copy(buf[:n], pg.data[po:po+n])
		buf = buf[n:]
		off += n
	}
	return nil
}

// Write stores data at offset off. The caller must be the single
// writer of the affected pages (MRSW); dirty pages become globally
// visible at Release.
func (d *NodeDSM) Write(p *simtime.Proc, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > d.sys.size {
		return ErrBounds
	}
	p.Work(params.TransferTime(int64(len(data)), params.Default().MemcpyBandwidth))
	ps := d.sys.cfg.PageSize
	for len(data) > 0 {
		page := off / ps
		po := off % ps
		n := ps - po
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		pg, err := d.fault(p, page)
		if err != nil {
			return err
		}
		if !pg.dirty {
			pg.twin = append([]byte(nil), pg.data...)
			pg.dirty = true
		}
		copy(pg.data[po:po+n], data[:n])
		data = data[n:]
		off += n
	}
	return nil
}

// Acquire opens a critical section. Invalidations are applied eagerly
// by the invalidation server, so acquire is a local no-op beyond its
// ordering role.
func (d *NodeDSM) Acquire(p *simtime.Proc) {
	p.Work(200 * time.Nanosecond)
}

// Release pushes every dirty page to its home with LT_write and
// multicasts invalidations to all other nodes, waiting for their
// acknowledgments (the paper's LT_RPC multicast).
func (d *NodeDSM) Release(p *simtime.Proc) error {
	var dirty []int64
	for page, pg := range d.cache {
		if pg.dirty {
			dirty = append(dirty, page)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	// Map iteration order is randomized; the write-back and
	// invalidation traffic must hit the fabric in a replayable order.
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, page := range dirty {
		pg := d.cache[page]
		idx, off := d.sys.homeOf(page)
		// Diff against the twin and write back only the changed runs,
		// coalescing runs separated by small unchanged gaps so a mostly
		// rewritten page goes home in one LT_write.
		const coalesce = 128
		for a := 0; a < len(pg.data); {
			if pg.data[a] == pg.twin[a] {
				a++
				continue
			}
			b := a
			gap := 0
			for e := a; e < len(pg.data); e++ {
				if pg.data[e] != pg.twin[e] {
					b = e + 1
					gap = 0
				} else if gap++; gap > coalesce {
					break
				}
			}
			if err := d.c.Write(p, d.homeLH[idx], off+int64(a), pg.data[a:b]); err != nil {
				return err
			}
			a = b
		}
		pg.dirty = false
		pg.twin = nil
		d.Writebacks++
	}
	// Multicast invalidations: concurrent LT_RPCs to every other node,
	// reply to the caller once all destinations reply (§8.4).
	msg := make([]byte, 8*len(dirty))
	for i, page := range dirty {
		binary.LittleEndian.PutUint64(msg[8*i:], uint64(page))
	}
	others := make([]int, 0, len(d.sys.nodes)-1)
	for _, n := range d.sys.nodes {
		if n != d.node {
			others = append(others, n)
		}
	}
	_, err := d.c.MulticastRPC(p, others, dsmFn, msg, 8)
	return err
}

// invalidationServer applies invalidation multicasts at one node.
func invalidationServer(p *simtime.Proc, dep *lite.Deployment, node int, s *System) {
	c := dep.Instance(node).KernelClient()
	for {
		call, err := c.RecvRPC(p, dsmFn)
		if err != nil {
			return
		}
		if end := s.ends[node]; end != nil {
			for i := 0; i+8 <= len(call.Input); i += 8 {
				page := int64(binary.LittleEndian.Uint64(call.Input[i:]))
				if pg, ok := end.cache[page]; ok && !pg.dirty {
					delete(end.cache, page)
					end.Invalidates++
				}
			}
		}
		_ = c.ReplyRPC(p, call, []byte{1})
	}
}
