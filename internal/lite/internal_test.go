package lite

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// Property: split covers exactly [off, off+n) with contiguous,
// in-order, chunk-respecting parts.
func TestQuickSplitCovers(t *testing.T) {
	f := func(seed int64, rawOff, rawN uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random chunk layout.
		nChunks := rng.Intn(6) + 1
		ls := &lmrState{}
		for i := 0; i < nChunks; i++ {
			sz := int64(rng.Intn(10000) + 1)
			ls.chunks = append(ls.chunks, chunk{node: i % 3, pa: 0, size: sz})
			ls.size += sz
		}
		off := int64(rawOff) % ls.size
		n := int64(rawN) % (ls.size - off + 1)
		parts, err := split(nil, ls, off, n)
		if err != nil {
			return false
		}
		// Reference: walk the chunks and compute overlaps directly.
		var want []part
		var base, bufOff int64
		for _, c := range ls.chunks {
			lo, hi := off, off+n
			if base+c.size > lo && base < hi {
				s := lo - base
				if s < 0 {
					s = 0
				}
				e := hi - base
				if e > c.size {
					e = c.size
				}
				if e > s {
					want = append(want, part{c: c, cOff: s, bufOff: bufOff, n: e - s})
					bufOff += e - s
				}
			}
			base += c.size
		}
		if len(parts) != len(want) {
			t.Logf("got %d parts, want %d", len(parts), len(want))
			return false
		}
		for i := range want {
			if parts[i] != want[i] {
				t.Logf("part %d: got %+v, want %+v", i, parts[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRejectsOutOfBounds(t *testing.T) {
	ls := &lmrState{size: 100, chunks: []chunk{{size: 100}}}
	for _, c := range []struct{ off, n int64 }{{-1, 10}, {0, 101}, {90, 20}, {0, -1}} {
		if _, err := split(nil, ls, c.off, c.n); err != ErrBounds {
			t.Errorf("split(%d, %d) err = %v, want ErrBounds", c.off, c.n, err)
		}
	}
}

// Property: alignParts produces pieces that tile both sides with equal
// lengths.
func TestQuickAlignParts(t *testing.T) {
	f := func(seed int64, total16 uint16) bool {
		total := int64(total16%5000) + 1
		rng := rand.New(rand.NewSource(seed))
		mk := func() []part {
			var out []part
			remain := total
			for remain > 0 {
				n := int64(rng.Intn(int(remain))) + 1
				out = append(out, part{c: chunk{size: n}, n: n})
				remain -= n
			}
			return out
		}
		pieces := alignParts(mk(), mk())
		var covered int64
		for _, pc := range pieces {
			if pc.n <= 0 || pc.src.n != pc.n || pc.dst.n != pc.n {
				return false
			}
			covered += pc.n
		}
		return covered == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestImmEncodingRoundTrip(t *testing.T) {
	for _, tag := range []int{tagRPCReq, tagRPCRep, tagHeadUpd} {
		for _, fn := range []int{0, 1, 15, 31} {
			for _, v := range []int64{0, 8, 64, 1 << 20, (1<<23 - 1) * ringAlign} {
				gt, gf, gv := decodeImm(encodeImm(tag, fn, v))
				if gt != tag || gf != fn || gv != v {
					t.Fatalf("imm(%d,%d,%d) -> (%d,%d,%d)", tag, fn, v, gt, gf, gv)
				}
			}
		}
	}
}

func TestReadTimesOutOnPartition(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "reader", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.MallocAt(p, []int{1}, 4096, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if err := c.Read(p, h, 0, buf); err != nil {
			t.Fatal(err)
		}
		cls.Fab.SetLinkDown(0, 1)
		start := p.Now()
		if err := c.Read(p, h, 0, buf); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if p.Now()-start < cls.Cfg.RCTimeout {
			t.Fatal("timed out too early")
		}
		// Recovery after the link returns.
		cls.Fab.SetLinkUp(0, 1)
		if err := c.Read(p, h, 0, buf); err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
	})
	run(t, cls)
}

func TestAtomicTimesOutOnPartition(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "adder", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.MallocAt(p, []int{1}, 64, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.FetchAdd(p, h, 0, 1); err != nil {
			t.Fatal(err)
		}
		cls.Fab.SetLinkDown(0, 1)
		if _, err := c.FetchAdd(p, h, 0, 1); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	run(t, cls)
}

// pollerCPU is the virtual CPU node's shared poller has been charged
// since observability was enabled.
func pollerCPU(dom *obs.Domain, node int) simtime.Time {
	return simtime.Time(dom.Node(node).Snapshot().Counters["cpu.lite-poller"])
}

func TestPollerCPUAccounted(t *testing.T) {
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	startEchoServerN(cls, dep, 1)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for i := 0; i < 20; i++ {
			if _, err := c.RPC(p, 1, echoFn, []byte("x"), 16); err != nil {
				t.Fatal(err)
			}
		}
	})
	run(t, cls)
	if pollerCPU(dom, 1) == 0 {
		t.Fatal("server poller CPU unaccounted")
	}
}

func TestScratchRingWraps(t *testing.T) {
	s := scratchRing{base: 0, size: 1 << 20}
	seen := make(map[int64]bool)
	for i := 0; i < 100000; i++ {
		pa := s.alloc(100)
		if int64(pa) < 0 || int64(pa)+100 > 1<<20 {
			t.Fatalf("allocation [%d, %d) outside arena", pa, int64(pa)+100)
		}
		if int64(pa)%64 != 0 {
			t.Fatalf("allocation %d not 64B aligned", pa)
		}
		seen[int64(pa)] = true
	}
	if len(seen) < 2 {
		t.Fatal("ring never advanced")
	}
}

func TestAdaptiveWaitDeadline(t *testing.T) {
	cls, dep := testDep(t, 1)
	inst := dep.Instance(0)
	cls.GoOn(0, "waiter", func(p *simtime.Proc) {
		var cond simtime.Cond
		start := p.Now()
		ok := inst.node.OS.AdaptiveWait(p, &cond, func() bool { return false }, p.Now()+50*time.Microsecond)
		if ok {
			t.Fatal("wait succeeded without the predicate holding")
		}
		if el := p.Now() - start; el < 50*time.Microsecond || el > 60*time.Microsecond {
			t.Fatalf("deadline respected poorly: %v", el)
		}
	})
	run(t, cls)
}
