package hostmem

// AllocatedBytes returns the bytes currently allocated.
func (m *Memory) AllocatedBytes() int64 { return m.allocated * m.pageSize }

// Pinned reports whether the page containing pa is pinned.
func (m *Memory) Pinned(pa PAddr) bool {
	return m.pins[int64(pa)/m.pageSize] > 0
}

// Mapped reports whether va's page is mapped.
func (as *AddressSpace) Mapped(va VAddr) bool {
	_, ok := as.table[int64(va)/as.mem.pageSize]
	return ok
}

// Unmap releases the mapping and physical memory of [va, va+n).
func (as *AddressSpace) Unmap(va VAddr, n int64) error {
	if n <= 0 {
		return ErrBadSize
	}
	pages := as.mem.pagesFor(n)
	vp := int64(va) / as.mem.pageSize
	for i := int64(0); i < pages; i++ {
		f, ok := as.table[vp+i]
		if !ok {
			return ErrBadAddress
		}
		if err := as.mem.Free(PAddr(f*as.mem.pageSize), as.mem.pageSize); err != nil {
			return err
		}
		delete(as.table, vp+i)
	}
	return nil
}
