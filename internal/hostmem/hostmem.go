// Package hostmem simulates a node's physical memory: a page-frame
// allocator with support for physically contiguous ranges, per-page pin
// counts (RDMA registration pins pages), lazily materialized page
// contents, and per-process virtual address spaces with page tables.
//
// Contents are materialized by writes only, at two grains, so a
// simulated node can expose a large physical memory (the paper's
// testbed has 128 GB per node) while the simulation pays for little
// more than the bytes actually written. A page starts as nothing and
// reads as zeros. A write materializes the 256-byte lines it touches,
// and the page keeps only those lines (a sparse page) until it is
// promoted to a whole page buffer (a dense page): when one write
// covers the whole page, when a write materializes a line next to one
// already written (a sequential writer such as an RPC ring), or when
// the page would hold more than 8 lines. A dense page is never
// demoted; Free drops either form, and so does Discard once the page
// holds only zeros. Reads never materialize anything.
package hostmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// PAddr is a physical byte address on one node.
type PAddr int64

// VAddr is a virtual byte address inside one address space.
type VAddr int64

// Common errors returned by the memory system.
var (
	ErrOutOfMemory  = errors.New("hostmem: out of physical memory")
	ErrNoContiguous = errors.New("hostmem: no contiguous physical range of requested size")
	ErrBadAddress   = errors.New("hostmem: address out of range or unmapped")
	ErrDoubleFree   = errors.New("hostmem: freeing memory that is not allocated")
	ErrPinned       = errors.New("hostmem: cannot free pinned memory")
	ErrNotPinned    = errors.New("hostmem: unpinning page that is not pinned")
	ErrBadSize      = errors.New("hostmem: size must be positive")
)

// lineSize is the grain of a sparse page, and a sparse page holds at
// most maxSparseLines lines (half a 4 KB page): a write that would give
// it more promotes it to a dense page.
const (
	lineSize       = 256
	maxSparseLines = 8
)

// sparsePage holds the written lines of one page: line l is present
// when bit l of mask is set, and present lines sit in lines in line
// order, each in its own buffer: adding a line neither copies the
// others nor leaves them behind as garbage.
type sparsePage struct {
	mask  uint64
	lines []*[lineSize]byte
}

// line returns present line l.
func (sp *sparsePage) line(l int64) *[lineSize]byte {
	return sp.lines[bits.OnesCount64(sp.mask&(1<<l-1))]
}

type frameRange struct {
	start int64 // first frame
	n     int64 // number of frames
}

// Memory is one node's physical memory.
type Memory struct {
	pageSize   int64
	totalPages int64
	free       []frameRange     // sorted by start, coalesced
	frames     map[int64][]byte // dense pages
	sparse     map[int64]sparsePage
	sparseOK   bool  // the geometry lets a page be sparse
	sparseN    int64 // lines held by sparse pages
	pins       map[int64]int
	allocated  int64 // frames currently allocated

	watches []watch
}

// watch is a write observer over a physical range. It exists for
// simulation fidelity: systems like HERD and FaRM detect incoming
// RDMA writes by busy-polling host memory, which a discrete-event
// simulation represents as a callback on commit plus CPU charged by
// the poller for the time it would have spun.
type watch struct {
	start PAddr
	end   PAddr
	fn    func()
}

// AddWatch registers fn to run whenever a Write overlaps [pa, pa+n).
// The callback runs in whatever context performed the write (possibly
// a scheduler callback) and must not block.
func (m *Memory) AddWatch(pa PAddr, n int64, fn func()) {
	m.watches = append(m.watches, watch{start: pa, end: pa + PAddr(n), fn: fn})
}

func (m *Memory) notifyWatches(pa PAddr, n int64) {
	if len(m.watches) == 0 {
		return
	}
	end := pa + PAddr(n)
	for _, w := range m.watches {
		if pa < w.end && w.start < end {
			w.fn()
		}
	}
}

// New returns a physical memory of totalBytes with the given page size.
func New(totalBytes, pageSize int64) *Memory {
	if pageSize <= 0 || totalBytes < pageSize {
		panic("hostmem: invalid geometry")
	}
	m := &Memory{
		pageSize:   pageSize,
		totalPages: totalBytes / pageSize,
		free:       []frameRange{{0, totalBytes / pageSize}},
		frames:     make(map[int64][]byte),
		sparse:     make(map[int64]sparsePage),
		pins:       make(map[int64]int),
	}
	// A page of 2 to 64 whole lines can be sparse; any other geometry
	// keeps every written page dense.
	l := pageSize / lineSize
	m.sparseOK = pageSize%lineSize == 0 && l > 1 && l <= 64
	return m
}

// PageSize returns the page size in bytes.
func (m *Memory) PageSize() int64 { return m.pageSize }

// TotalBytes returns the physical memory size.
func (m *Memory) TotalBytes() int64 { return m.totalPages * m.pageSize }

// ResidentBytes returns the bytes of page contents the memory holds:
// a page size per dense page plus 256 bytes per line of a sparse page.
// Allocated memory that was never written holds nothing.
func (m *Memory) ResidentBytes() int64 {
	return int64(len(m.frames))*m.pageSize + m.sparseN*lineSize
}

func (m *Memory) pagesFor(n int64) int64 {
	return (n + m.pageSize - 1) / m.pageSize
}

// AllocContiguous allocates n bytes of physically contiguous memory
// (first fit) and returns its base physical address.
func (m *Memory) AllocContiguous(n int64) (PAddr, error) {
	if n <= 0 {
		return 0, ErrBadSize
	}
	want := m.pagesFor(n)
	for i, r := range m.free {
		if r.n >= want {
			base := r.start
			if r.n == want {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = frameRange{r.start + want, r.n - want}
			}
			m.allocated += want
			return PAddr(base * m.pageSize), nil
		}
	}
	if m.totalPages-m.allocated >= want {
		return 0, ErrNoContiguous
	}
	return 0, ErrOutOfMemory
}

// AllocPages allocates n bytes of physical memory that need not be
// contiguous and returns the frame base addresses, one per page.
func (m *Memory) AllocPages(n int64) ([]PAddr, error) {
	if n <= 0 {
		return nil, ErrBadSize
	}
	want := m.pagesFor(n)
	if m.totalPages-m.allocated < want {
		return nil, ErrOutOfMemory
	}
	out := make([]PAddr, 0, want)
	for want > 0 {
		r := m.free[0]
		take := r.n
		if take > want {
			take = want
		}
		for i := int64(0); i < take; i++ {
			out = append(out, PAddr((r.start+i)*m.pageSize))
		}
		if take == r.n {
			m.free = m.free[1:]
		} else {
			m.free[0] = frameRange{r.start + take, r.n - take}
		}
		m.allocated += take
		want -= take
	}
	return out, nil
}

// Free releases n bytes starting at the page-aligned physical address
// pa. Pinned pages cannot be freed.
func (m *Memory) Free(pa PAddr, n int64) error {
	if n <= 0 {
		return ErrBadSize
	}
	start := int64(pa) / m.pageSize
	count := m.pagesFor(n)
	if int64(pa)%m.pageSize != 0 || start+count > m.totalPages {
		return ErrBadAddress
	}
	for f := start; f < start+count; f++ {
		if m.pins[f] > 0 {
			return ErrPinned
		}
		if m.isFree(f) {
			return ErrDoubleFree
		}
	}
	for f := start; f < start+count; f++ {
		delete(m.frames, f)
		if sp, ok := m.sparse[f]; ok {
			m.sparseN -= int64(bits.OnesCount64(sp.mask))
			delete(m.sparse, f)
		}
	}
	m.insertFree(frameRange{start, count})
	m.allocated -= count
	return nil
}

func (m *Memory) isFree(frame int64) bool {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].start+m.free[i].n > frame })
	return i < len(m.free) && m.free[i].start <= frame
}

func (m *Memory) insertFree(r frameRange) {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].start > r.start })
	m.free = append(m.free, frameRange{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = r
	// Coalesce with neighbors.
	if i+1 < len(m.free) && m.free[i].start+m.free[i].n == m.free[i+1].start {
		m.free[i].n += m.free[i+1].n
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].start+m.free[i-1].n == m.free[i].start {
		m.free[i-1].n += m.free[i].n
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// MaxContiguousRun returns the largest allocatable contiguous range in
// bytes; useful for fragmentation diagnostics.
func (m *Memory) MaxContiguousRun() int64 {
	var best int64
	for _, r := range m.free {
		if r.n > best {
			best = r.n
		}
	}
	return best * m.pageSize
}

// Pin increments the pin count of every page in [pa, pa+n).
func (m *Memory) Pin(pa PAddr, n int64) error {
	start, count, err := m.pageSpan(pa, n)
	if err != nil {
		return err
	}
	for f := start; f < start+count; f++ {
		m.pins[f]++
	}
	return nil
}

// Unpin decrements the pin count of every page in [pa, pa+n).
func (m *Memory) Unpin(pa PAddr, n int64) error {
	start, count, err := m.pageSpan(pa, n)
	if err != nil {
		return err
	}
	for f := start; f < start+count; f++ {
		if m.pins[f] == 0 {
			return ErrNotPinned
		}
	}
	for f := start; f < start+count; f++ {
		if m.pins[f]--; m.pins[f] == 0 {
			delete(m.pins, f)
		}
	}
	return nil
}

func (m *Memory) pageSpan(pa PAddr, n int64) (start, count int64, err error) {
	if n <= 0 {
		return 0, 0, ErrBadSize
	}
	start = int64(pa) / m.pageSize
	end := (int64(pa) + n + m.pageSize - 1) / m.pageSize
	if int64(pa) < 0 || end > m.totalPages {
		return 0, 0, ErrBadAddress
	}
	return start, end - start, nil
}

// Write copies data into physical memory at pa, which may span pages.
func (m *Memory) Write(pa PAddr, data []byte) error {
	if _, _, err := m.pageSpan(pa, int64(len(data))); err != nil {
		if len(data) == 0 {
			return nil
		}
		return err
	}
	total := int64(len(data))
	addr := int64(pa)
	for len(data) > 0 {
		f := addr / m.pageSize
		off := addr % m.pageSize
		n := min(int64(len(data)), m.pageSize-off)
		if b := m.frames[f]; b != nil {
			copy(b[off:], data[:n])
		} else {
			m.writeSparse(f, off, data[:n])
		}
		data = data[n:]
		addr += n
	}
	m.notifyWatches(pa, total)
	return nil
}

// writeSparse writes data at off into page f, which has no dense
// buffer: it adds the lines data touches to the page's sparse form, or
// promotes the page to dense (see the package doc).
func (m *Memory) writeSparse(f, off int64, data []byte) {
	sp := m.sparse[f]
	end := off + int64(len(data))
	mask := sp.mask
	promote := !m.sparseOK || int64(len(data)) == m.pageSize
	for l := off / lineSize; !promote && l*lineSize < end; l++ {
		if bit := uint64(1) << l; mask&bit == 0 {
			promote = sp.mask&(bit<<1|bit>>1) != 0
			mask |= bit
		}
	}
	if promote || bits.OnesCount64(mask) > maxSparseLines {
		b := make([]byte, m.pageSize)
		for rest := sp.mask; rest != 0; rest &= rest - 1 {
			l := int64(bits.TrailingZeros64(rest))
			copy(b[l*lineSize:], sp.line(l)[:])
		}
		copy(b[off:], data)
		m.frames[f] = b
		m.sparseN -= int64(bits.OnesCount64(sp.mask))
		delete(m.sparse, f)
		return
	}
	if add := mask &^ sp.mask; add != 0 {
		m.sparseN += int64(bits.OnesCount64(add))
		for ; add != 0; add &= add - 1 {
			l := int64(bits.TrailingZeros64(add))
			sp.mask |= 1 << l
			sp.lines = slices.Insert(sp.lines, bits.OnesCount64(sp.mask&(1<<l-1)), new([lineSize]byte))
		}
		m.sparse[f] = sp
	}
	for off < end {
		l := off / lineSize
		n := copy(sp.line(l)[off-l*lineSize:], data)
		data = data[n:]
		off += int64(n)
	}
}

// Discard clears [pa, pa+n), for a consumer done with bytes nobody
// reads again (an RPC ring frame once parsed, a reply once copied out):
// the range reads as zeros afterwards. A page whose last byte the range
// covers is dropped if it then holds only zeros, which reads the same,
// so a sequential consumer gives each page back as it passes it and
// the memory holds the bytes in flight, not every byte a ring ever
// carried. Discard is not a write: it materializes nothing and
// notifies no watch.
func (m *Memory) Discard(pa PAddr, n int64) error {
	if _, _, err := m.pageSpan(pa, n); err != nil {
		return err
	}
	addr, end := int64(pa), int64(pa)+n
	for addr < end {
		f := addr / m.pageSize
		off := addr % m.pageSize
		k := min(end-addr, m.pageSize-off)
		last := off+k == m.pageSize
		if b := m.frames[f]; b != nil {
			clear(b[off : off+k])
			if last && allZero(b) {
				delete(m.frames, f)
			}
		} else if sp, ok := m.sparse[f]; ok {
			m.discardSparse(f, sp, off, off+k, last)
		}
		addr += k
	}
	return nil
}

// discardSparse clears [off, end) of sparse page f and drops the page
// if last is set and every line it holds is now zero.
func (m *Memory) discardSparse(f int64, sp sparsePage, off, end int64, last bool) {
	for l := off / lineSize; l*lineSize < end; l++ {
		if sp.mask&(1<<l) != 0 {
			lo, hi := max(off, l*lineSize), min(end, (l+1)*lineSize)
			clear(sp.line(l)[lo-l*lineSize : hi-l*lineSize])
		}
	}
	if !last {
		return
	}
	for _, ln := range sp.lines {
		if !allZero(ln[:]) {
			return
		}
	}
	m.sparseN -= int64(bits.OnesCount64(sp.mask))
	delete(m.sparse, f)
}

// allZero reports whether b holds only zeros, a line at a time.
func allZero(b []byte) bool {
	var zero [lineSize]byte
	for len(b) > 0 {
		n := min(len(b), lineSize)
		if !bytes.Equal(b[:n], zero[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// Read copies len(buf) bytes of physical memory at pa into buf.
// Never-written bytes read as zeros.
func (m *Memory) Read(pa PAddr, buf []byte) error {
	if _, _, err := m.pageSpan(pa, int64(len(buf))); err != nil {
		if len(buf) == 0 {
			return nil
		}
		return err
	}
	addr := int64(pa)
	for len(buf) > 0 {
		f := addr / m.pageSize
		off := addr % m.pageSize
		n := min(int64(len(buf)), m.pageSize-off)
		if b := m.frames[f]; b != nil {
			copy(buf, b[off:off+n])
		} else {
			m.readSparse(f, off, buf[:n])
		}
		buf = buf[n:]
		addr += n
	}
	return nil
}

// readSparse reads page f at off into buf from its sparse form: lines
// the page does not hold read as zeros.
func (m *Memory) readSparse(f, off int64, buf []byte) {
	sp, ok := m.sparse[f]
	if !ok {
		clear(buf)
		return
	}
	for len(buf) > 0 {
		l := off / lineSize
		lo := off - l*lineSize
		var n int
		if sp.mask&(1<<l) != 0 {
			n = copy(buf, sp.line(l)[lo:])
		} else {
			n = int(min(int64(len(buf)), lineSize-lo))
			clear(buf[:n])
		}
		buf = buf[n:]
		off += int64(n)
	}
}

// AddressSpace is a per-process virtual address space backed by a page
// table into one Memory. Virtual mappings need not be physically
// contiguous.
type AddressSpace struct {
	mem    *Memory
	table  map[int64]int64 // vpage -> frame
	nextVA int64
}

// NewAddressSpace returns an empty address space over mem. Virtual
// addresses start above zero so that 0 can serve as a nil address.
func NewAddressSpace(mem *Memory) *AddressSpace {
	return &AddressSpace{mem: mem, table: make(map[int64]int64), nextVA: mem.pageSize}
}

// Mem returns the underlying physical memory.
func (as *AddressSpace) Mem() *Memory { return as.mem }

// Map allocates n bytes of (possibly discontiguous) physical memory and
// maps it at a fresh virtual range, returning the base virtual address.
func (as *AddressSpace) Map(n int64) (VAddr, error) {
	if n <= 0 {
		return 0, ErrBadSize
	}
	frames, err := as.mem.AllocPages(n)
	if err != nil {
		return 0, err
	}
	base := as.nextVA
	for i, pa := range frames {
		as.table[(base+int64(i)*as.mem.pageSize)/as.mem.pageSize] = int64(pa) / as.mem.pageSize
	}
	as.nextVA = base + int64(len(frames))*as.mem.pageSize
	return VAddr(base), nil
}

// Translate returns the physical address backing va. The translation
// is only valid to the end of va's page.
func (as *AddressSpace) Translate(va VAddr) (PAddr, error) {
	f, ok := as.table[int64(va)/as.mem.pageSize]
	if !ok {
		return 0, ErrBadAddress
	}
	return PAddr(f*as.mem.pageSize + int64(va)%as.mem.pageSize), nil
}

// WriteV copies data into the address space at va, page by page.
func (as *AddressSpace) WriteV(va VAddr, data []byte) error {
	for len(data) > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return err
		}
		room := as.mem.pageSize - int64(va)%as.mem.pageSize
		n := int64(len(data))
		if n > room {
			n = room
		}
		if err := as.mem.Write(pa, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		va += VAddr(n)
	}
	return nil
}

// ReadV copies len(buf) bytes from the address space at va into buf.
func (as *AddressSpace) ReadV(va VAddr, buf []byte) error {
	for len(buf) > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return err
		}
		room := as.mem.pageSize - int64(va)%as.mem.pageSize
		n := int64(len(buf))
		if n > room {
			n = room
		}
		if err := as.mem.Read(pa, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		va += VAddr(n)
	}
	return nil
}

// String summarizes allocation state for diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("hostmem{%d/%d pages allocated, %d free ranges, max run %d B}",
		m.allocated, m.totalPages, len(m.free), m.MaxContiguousRun())
}
