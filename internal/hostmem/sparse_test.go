package hostmem

import (
	"bytes"
	"math/rand"
	"testing"

	"lite/internal/allocbudget"
)

const testPage = 4096

// The promotion rule, step by step: isolated lines stay sparse, a line
// next to a written one, a ninth line and a whole-page write each make
// the page dense, and Free drops both forms.
func TestSparsePromotion(t *testing.T) {
	m := New(16*testPage, testPage)
	base, _ := m.AllocContiguous(8 * testPage)
	line := func(page, l int64) PAddr { return base + PAddr(page*testPage+l*lineSize) }
	want := func(step string, resident int64) {
		t.Helper()
		if got := m.ResidentBytes(); got != resident {
			t.Fatalf("%s: resident = %d, want %d", step, got, resident)
		}
	}
	want("fresh", 0)

	m.Write(line(0, 0)+10, []byte{1})
	want("one byte", lineSize)
	m.Write(line(0, 0)+200, make([]byte, 56)) // same line, up to its end
	want("same line", lineSize)
	m.Write(line(0, 2), []byte{2})
	want("second, isolated line", 2*lineSize)
	m.Write(line(0, 3)+255, []byte{3})
	want("line next to a written one", testPage)

	m.Write(line(1, 5)+250, make([]byte, 12)) // lines 5 and 6 in one write
	want("one write over two fresh lines", testPage+2*lineSize)
	m.Write(line(1, 7), []byte{4})
	want("line after a two-line write", 2*testPage)

	for l := int64(0); l < 16; l += 2 {
		m.Write(line(2, l), []byte{byte(l)})
	}
	want("eight isolated lines", 2*testPage+8*lineSize)

	// Lines 0–1, 3–4, 7–8 and 11–12: no write lands next to an earlier
	// one.
	for _, l := range []int64{0, 3, 7, 11} {
		m.Write(line(3, l)+lineSize-1, []byte{7, 7})
	}
	want("eight lines in four writes", 2*testPage+16*lineSize)
	m.Write(line(3, 14), []byte{8})
	want("a ninth line", 3*testPage+8*lineSize)

	m.Write(line(4, 0), make([]byte, testPage))
	want("whole-page write", 4*testPage+8*lineSize)

	got := make([]byte, 2*testPage)
	if err := m.Read(line(5, 0), got); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("unwritten pages read %v, err %v; want zeros", got[:8], err)
	}
	want("after reading unwritten pages", 4*testPage+8*lineSize)

	m.Write(line(7, 1), []byte{6})
	if err := m.Free(base, 8*testPage); err != nil {
		t.Fatal(err)
	}
	want("after Free", 0)
	if len(m.frames) != 0 || len(m.sparse) != 0 {
		t.Fatalf("Free left %d dense and %d sparse pages", len(m.frames), len(m.sparse))
	}
}

// memModel drives a Memory and a flat byte model of it with one op
// stream and fails on the first difference. Memory has 2·modelPages
// pages: frames [0, modelPages) are allocated as one contiguous range
// and accessed physically, frames [modelPages, 2·modelPages) are
// mapped into an address space and accessed virtually.
type memModel struct {
	t     testing.TB
	m     *Memory
	as    *AddressSpace
	va    VAddr
	flat  []byte
	wrote []bool // per line: written since the page was last freed
	seq   byte
}

const modelPages = 8

func newMemModel(t testing.TB) *memModel {
	m := New(2*modelPages*testPage, testPage)
	if pa, err := m.AllocContiguous(modelPages * testPage); err != nil || pa != 0 {
		t.Fatalf("AllocContiguous = %d, %v", pa, err)
	}
	as := NewAddressSpace(m)
	va, err := as.Map(modelPages * testPage)
	if err != nil {
		t.Fatal(err)
	}
	return &memModel{
		t: t, m: m, as: as, va: va,
		flat:  make([]byte, 2*modelPages*testPage),
		wrote: make([]bool, 2*modelPages*testPage/lineSize),
	}
}

// run decodes ops from data until it runs out. Each op is one selector
// byte followed by its operands.
func (mm *memModel) run(data []byte) {
	next := func() int {
		if len(data) == 0 {
			return -1
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	word := func() int { return next()<<8 | next() }
	for {
		op := next()
		if op < 0 {
			return
		}
		switch op % 7 {
		case 0, 1: // physical write or read anywhere, often straddling pages
			off, n := word(), mm.length(next(), word())
			if off < 0 || n <= 0 {
				return
			}
			pa := off % len(mm.flat)
			n = min(n, len(mm.flat)-pa)
			if op%6 == 0 {
				mm.write(pa, n, func(b []byte) error { return mm.m.Write(PAddr(pa), b) })
			} else {
				mm.read(pa, n, func(b []byte) error { return mm.m.Read(PAddr(pa), b) })
			}
		case 2: // whole-page write
			page := next()
			if page < 0 {
				return
			}
			pa := page % (2 * modelPages) * testPage
			mm.write(pa, testPage, func(b []byte) error { return mm.m.Write(PAddr(pa), b) })
		case 3: // free one physical page and allocate it again: zeros
			page := next()
			if page < 0 {
				return
			}
			pa := page % modelPages * testPage
			if err := mm.m.Free(PAddr(pa), testPage); err != nil {
				mm.t.Fatalf("Free(%d): %v", pa, err)
			}
			if got, err := mm.m.AllocContiguous(testPage); err != nil || got != PAddr(pa) {
				mm.t.Fatalf("re-allocation = %d, %v; want %d", got, err, pa)
			}
			clear(mm.flat[pa : pa+testPage])
			clear(mm.wrote[pa/lineSize : (pa+testPage)/lineSize])
			mm.read(pa, testPage, func(b []byte) error { return mm.m.Read(PAddr(pa), b) })
		case 4, 5: // virtual write or read through the page table
			off, n := word(), mm.length(next(), word())
			if off < 0 || n <= 0 {
				return
			}
			voff := off % (modelPages * testPage)
			n = min(n, modelPages*testPage-voff)
			pa := modelPages*testPage + voff // Map took the free frames in order
			va := mm.va + VAddr(voff)
			if op%6 == 4 {
				mm.write(pa, n, func(b []byte) error { return mm.as.WriteV(va, b) })
			} else {
				mm.read(pa, n, func(b []byte) error { return mm.as.ReadV(va, b) })
			}
		case 6: // discard anywhere: zeros, and a page whose end the range
			// reaches is dropped if that leaves it all zeros
			off, n := word(), mm.length(next(), word())
			if off < 0 || n <= 0 {
				return
			}
			pa := off % len(mm.flat)
			n = min(n, len(mm.flat)-pa)
			if err := mm.m.Discard(PAddr(pa), int64(n)); err != nil {
				mm.t.Fatalf("Discard [%d, +%d): %v", pa, n, err)
			}
			clear(mm.flat[pa : pa+n])
			for lo := pa / testPage * testPage; lo < pa+n; lo += testPage {
				if hi := lo + testPage; pa+n >= hi && allZero(mm.flat[lo:hi]) {
					clear(mm.wrote[lo/lineSize : hi/lineSize])
				}
			}
		}
		mm.checkResident()
	}
}

// length picks an access length by class: a few bytes, about a line, a
// line exactly or up to two pages.
func (mm *memModel) length(class, w int) int {
	if class < 0 || w < 0 {
		return -1
	}
	switch class % 4 {
	case 0:
		return 1 + w%16
	case 1:
		return 1 + w%(2*lineSize)
	case 2:
		return lineSize
	default:
		return 1 + w%(2*testPage+lineSize)
	}
}

func (mm *memModel) write(pa, n int, do func([]byte) error) {
	mm.seq++
	b := make([]byte, n)
	for i := range b {
		b[i] = mm.seq + byte(i*7)
	}
	if err := do(b); err != nil {
		mm.t.Fatalf("write [%d, +%d): %v", pa, n, err)
	}
	copy(mm.flat[pa:], b)
	for l := pa / lineSize; l*lineSize < pa+n; l++ {
		mm.wrote[l] = true
	}
}

func (mm *memModel) read(pa, n int, do func([]byte) error) {
	before := mm.m.ResidentBytes()
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xAA // a read must overwrite every byte, zeros included
	}
	if err := do(b); err != nil {
		mm.t.Fatalf("read [%d, +%d): %v", pa, n, err)
	}
	if !bytes.Equal(b, mm.flat[pa:pa+n]) {
		i := 0
		for b[i] == mm.flat[pa+i] {
			i++
		}
		mm.t.Fatalf("read [%d, +%d): byte %d = %#x, model has %#x", pa, n, pa+i, b[i], mm.flat[pa+i])
	}
	if after := mm.m.ResidentBytes(); after != before {
		mm.t.Fatalf("read [%d, +%d) moved resident bytes %d -> %d", pa, n, before, after)
	}
}

// checkResident bounds ResidentBytes by what was written: at least
// every written line, at most every page holding one.
func (mm *memModel) checkResident() {
	var lines, pages int64
	perPage := testPage / lineSize
	for pg := 0; pg < len(mm.wrote)/perPage; pg++ {
		touched := false
		for _, w := range mm.wrote[pg*perPage : (pg+1)*perPage] {
			if w {
				lines++
				touched = true
			}
		}
		if touched {
			pages++
		}
	}
	if got := mm.m.ResidentBytes(); got < lines*lineSize || got > pages*testPage {
		mm.t.Fatalf("resident = %d B, want within [%d, %d] for %d written lines on %d pages",
			got, lines*lineSize, pages*testPage, lines, pages)
	}
}

// The two-grain store reads back exactly what a flat byte array would,
// over random op streams.
func TestMemoryMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 300; s++ {
		ops := make([]byte, 50+rng.Intn(600))
		rng.Read(ops)
		newMemModel(t).run(ops)
	}
}

func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 1})
	f.Add([]byte{0, 15, 250, 1, 0, 20, 1, 15, 240, 3, 1, 0})
	f.Add([]byte{2, 3, 3, 3, 5, 0, 200, 3, 0, 0})
	f.Add([]byte{4, 15, 0, 3, 40, 0, 5, 15, 0, 3, 40, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newMemModel(t).run(ops)
	})
}

// Reading memory nobody wrote allocates nothing and materializes
// nothing, and writing into a dense page allocates nothing.
func TestMemoryAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	m := New(64*testPage, testPage)
	base, _ := m.AllocContiguous(16 * testPage)
	buf := make([]byte, 3*testPage)
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Read(base+100, buf) }); allocs != 0 {
		t.Errorf("reading unwritten memory: %.0f allocations, want 0", allocs)
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Errorf("reading unwritten memory made %d B resident, want 0", got)
	}
	m.Write(base+8*testPage, make([]byte, testPage))
	small := make([]byte, 100)
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Write(base+8*testPage+300, small) }); allocs != 0 {
		t.Errorf("writing into a dense page: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Discard(base+8*testPage+300, 100) }); allocs != 0 {
		t.Errorf("discarding in a dense page: %.0f allocations, want 0", allocs)
	}
}

// Discard, step by step: a sequential writer and consumer (an RPC
// ring) holds only the pages it has not passed, a page that still
// holds other bytes stays, discarding unwritten memory materializes
// nothing, and no watch fires.
func TestDiscard(t *testing.T) {
	m := New(16*testPage, testPage)
	base, _ := m.AllocContiguous(8 * testPage)
	fired, writes := 0, 0
	m.AddWatch(base, 8*testPage, func() { fired++ })
	want := func(step string, resident int64) {
		t.Helper()
		if got := m.ResidentBytes(); got != resident {
			t.Fatalf("%s: resident = %d, want %d", step, got, resident)
		}
	}

	frame := bytes.Repeat([]byte{0xab}, 100)
	got := make([]byte, len(frame))
	var peak int64
	off := int64(0)
	for ; off+100 <= 3*testPage; off += 100 {
		m.Write(base+PAddr(off), frame)
		writes++
		if err := m.Read(base+PAddr(off), got); err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("frame at %d read %v, err %v", off, got[:4], err)
		}
		if err := m.Discard(base+PAddr(off), 100); err != nil {
			t.Fatal(err)
		}
		if err := m.Read(base+PAddr(off), got); err != nil || !allZero(got) {
			t.Fatalf("discarded frame at %d read %v, err %v; want zeros", off, got[:4], err)
		}
		peak = max(peak, m.ResidentBytes())
	}
	if peak > testPage {
		t.Fatalf("ring consumer peaked at %d B resident, want at most the page it is in", peak)
	}
	want("consumer inside its third page", testPage)
	m.Discard(base+PAddr(off), 3*testPage-off)
	want("consumer past its third page", 0)

	p := base + 4*testPage
	m.Write(p+10, []byte{1})
	m.Write(p+testPage-100, frame)
	writes += 2
	m.Discard(p+testPage-100, 100)
	want("page with another written byte", 2*lineSize)
	if err := m.Read(p+10, got[:1]); err != nil || got[0] != 1 {
		t.Fatalf("byte outside the discarded range read %d, err %v; want 1", got[0], err)
	}
	m.Write(p+lineSize, make([]byte, lineSize)) // next to line 0: dense
	writes++
	m.Discard(p, 16) // zeros only now
	want("discard that does not reach the page end", testPage)
	m.Discard(p+testPage-1, 1)
	want("zeros-only page whose end is discarded", 0)

	m.Discard(base+6*testPage, 2*testPage)
	want("discarding unwritten pages", 0)
	if fired != writes {
		t.Fatalf("watch fired %d times for %d writes", fired, writes)
	}
	if err := m.Discard(base, 0); err != ErrBadSize {
		t.Fatalf("Discard of 0 bytes: %v, want ErrBadSize", err)
	}
	if err := m.Discard(base+15*testPage, 2*testPage); err != ErrBadAddress {
		t.Fatalf("Discard past the end: %v, want ErrBadAddress", err)
	}
}
