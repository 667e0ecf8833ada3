package rnic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"lite/internal/fabric"
	"lite/internal/hostmem"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

type testCluster struct {
	env *simtime.Env
	cfg params.Config
	reg *Registry
	nic []*NIC
	as  []*hostmem.AddressSpace
}

func newCluster(t testing.TB, n int) *testCluster {
	t.Helper()
	c := &testCluster{env: simtime.NewEnv(), cfg: params.Default()}
	c.reg = NewRegistry(c.env, &c.cfg, fabric.New(&c.cfg))
	for i := 0; i < n; i++ {
		mem := hostmem.New(1<<30, c.cfg.PageSize)
		nic, err := c.reg.NewNIC(i, mem)
		if err != nil {
			t.Fatal(err)
		}
		c.nic = append(c.nic, nic)
		c.as = append(c.as, hostmem.NewAddressSpace(mem))
	}
	return c
}

// physMR allocates contiguous physical memory and registers it.
func (c *testCluster) physMR(t testing.TB, node int, size int64, perm Perm) *MR {
	t.Helper()
	pa, err := c.nic[node].Mem().AllocContiguous(size)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := c.nic[node].RegisterPhysMR(c.as[node], pa, size, perm)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func (c *testCluster) rcPair(a, b int) (*QP, *QP) {
	qa := c.nic[a].CreateQP(RC, c.nic[a].CreateCQ(), c.nic[a].CreateCQ())
	qb := c.nic[b].CreateQP(RC, c.nic[b].CreateCQ(), c.nic[b].CreateCQ())
	qa.Connect(b, qb.QPN())
	qb.Connect(a, qa.QPN())
	return qa, qb
}

func (c *testCluster) run(t testing.TB) {
	t.Helper()
	if err := c.env.Run(); err != nil {
		t.Fatal(err)
	}
}

const allPerm = PermRead | PermWrite | PermAtomic

func TestRCWriteMovesData(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	var lat simtime.Time
	c.env.Go("writer", func(p *simtime.Proc) {
		msg := []byte("hello rdma world")
		if err := src.WriteAt(0, msg); err != nil {
			t.Error(err)
		}
		// Warm the NIC SRAM caches (first touch pays key/QP misses).
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 99, Signaled: true,
			LocalMR: src, Len: 1, RemoteKey: dst.Key(),
		})
		qa.SendCQ().Poll(p)
		start := p.Now()
		err := c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Signaled: true,
			LocalMR: src, Len: int64(len(msg)),
			RemoteKey: dst.Key(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cqe := qa.SendCQ().Poll(p)
		lat = p.Now() - start
		if cqe.Status != StatusOK || cqe.WRID != 1 {
			t.Errorf("cqe = %+v", cqe)
		}
		got := make([]byte, len(msg))
		if err := dst.ReadAt(0, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("remote memory = %q, want %q", got, msg)
		}
	})
	c.run(t)
	if lat < 500*time.Nanosecond || lat > 3*time.Microsecond {
		t.Fatalf("small write latency = %v, want roughly 1-2us", lat)
	}
}

func TestRCReadFetchesData(t *testing.T) {
	c := newCluster(t, 2)
	local := c.physMR(t, 0, 4096, allPerm)
	remote := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	c.env.Go("reader", func(p *simtime.Proc) {
		want := []byte("remote payload bytes")
		if err := remote.WriteAt(64, want); err != nil {
			t.Error(err)
		}
		err := c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpRead, WRID: 9, Signaled: true,
			LocalMR: local, LocalOff: 8, Len: int64(len(want)),
			RemoteKey: remote.Key(), RemoteOff: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		cqe := qa.SendCQ().Poll(p)
		if cqe.Status != StatusOK {
			t.Fatalf("status = %v", cqe.Status)
		}
		got := make([]byte, len(want))
		_ = local.ReadAt(8, got)
		if !bytes.Equal(got, want) {
			t.Errorf("read = %q, want %q", got, want)
		}
	})
	c.run(t)
}

func TestWritePermissionDenied(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, PermRead) // no write permission
	qa, _ := c.rcPair(0, 1)

	c.env.Go("writer", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 2, Signaled: true,
			LocalMR: src, Len: 16, RemoteKey: dst.Key(),
		})
		cqe := qa.SendCQ().Poll(p)
		if cqe.Status != StatusAccessError {
			t.Errorf("status = %v, want ACCESS_ERROR", cqe.Status)
		}
		// Memory must be untouched.
		got := make([]byte, 16)
		_ = dst.ReadAt(0, got)
		if !bytes.Equal(got, make([]byte, 16)) {
			t.Error("remote memory modified despite permission error")
		}
	})
	c.run(t)
}

func TestBadKeyAndBounds(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	c.env.Go("writer", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Signaled: true,
			LocalMR: src, Len: 16, RemoteKey: 9999,
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusBadKey {
			t.Errorf("status = %v, want BAD_KEY", cqe.Status)
		}
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 2, Signaled: true,
			LocalMR: src, Len: 16, RemoteKey: dst.Key(), RemoteOff: 4090,
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusLengthError {
			t.Errorf("status = %v, want LENGTH_ERROR", cqe.Status)
		}
	})
	c.run(t)
}

// Two-sided SEND is modeled on UD only. On an RC QP it is refused at
// post, alone or in a chain, and nothing of it is posted: no doorbell,
// no packet, no completion, no receive consumed.
func TestSendOnRCIsRefused(t *testing.T) {
	c := newCluster(t, 2)
	dom := obs.NewDomain(2)
	c.reg.fab.SetObs(dom.Global())
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	rbuf := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)
	if err := qb.PostRecv(PostedRecv{MR: rbuf, Len: 1024, WRID: 77}); err != nil {
		t.Fatal(err)
	}
	send := WR{Kind: OpSend, WRID: 5, Signaled: true, LocalMR: src, Len: 64}
	write := WR{Kind: OpWrite, WRID: 6, Signaled: true, LocalMR: src, Len: 64, RemoteKey: dst.Key()}
	if err := c.nic[0].PostSend(0, qa, send); err != ErrBadQPState {
		t.Errorf("PostSend of an RC SEND: err = %v, want ErrBadQPState", err)
	}
	if err := c.nic[0].PostSendList(0, qa, []WR{write, send}); err != ErrBadQPState {
		t.Errorf("PostSendList with an RC SEND: err = %v, want ErrBadQPState", err)
	}
	c.run(t)
	if n := c.nic[0]; n.Doorbells != 0 || n.OpsPosted != 0 {
		t.Errorf("%d doorbells and %d WRs posted, want none", n.Doorbells, n.OpsPosted)
	}
	if got := dom.Total("fabric.packets"); got != 0 {
		t.Errorf("fabric carried %d packets, want none", got)
	}
	if qa.SendCQ().Len() != 0 || qb.RecvCQ().Len() != 0 || qb.RecvPosted() != 1 {
		t.Errorf("send CQ %d, receive CQ %d, posted receives %d; want 0, 0, 1",
			qa.SendCQ().Len(), qb.RecvCQ().Len(), qb.RecvPosted())
	}
}

// A WRITE_IMM that finds no posted receive retries on
// receiver-not-ready and delivers once a receive is posted.
func TestWriteImmRNRRetryThenSuccess(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)

	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWriteImm, WRID: 1, Signaled: true, LocalMR: src, Len: 64,
			RemoteKey: dst.Key(), Imm: 3,
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("send status = %v", cqe.Status)
		}
	})
	c.env.Go("late-poster", func(p *simtime.Proc) {
		p.Sleep(5 * time.Microsecond) // a couple of RNR retries happen first
		_ = qb.PostRecv(PostedRecv{MR: dst, WRID: 1})
		cqe := qb.RecvCQ().Poll(p)
		if cqe.Status != StatusOK || cqe.Imm != 3 || cqe.Len != 64 {
			t.Errorf("recv cqe = %+v", cqe)
		}
	})
	c.run(t)
}

func TestWriteImmDeliversImmediate(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	imm := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)
	_ = qb.PostRecv(PostedRecv{MR: imm, Len: 0, WRID: 1})

	msg := []byte("imm payload")
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = src.WriteAt(0, msg)
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWriteImm, WRID: 3, Signaled: false,
			LocalMR: src, Len: int64(len(msg)),
			RemoteKey: dst.Key(), RemoteOff: 256,
			Imm: 0xDEADBEEF,
		})
	})
	c.env.Go("receiver", func(p *simtime.Proc) {
		cqe := qb.RecvCQ().Poll(p)
		if !cqe.HasImm || cqe.Imm != 0xDEADBEEF || cqe.Kind != OpWriteImm {
			t.Errorf("cqe = %+v", cqe)
		}
		got := make([]byte, len(msg))
		_ = dst.ReadAt(256, got)
		if !bytes.Equal(got, msg) {
			t.Errorf("payload = %q", got)
		}
	})
	c.run(t)
}

func TestUDSendAndDrop(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	rbuf := c.physMR(t, 1, 4096, allPerm)
	qa := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
	qb := c.nic[1].CreateQP(UD, c.nic[1].CreateCQ(), c.nic[1].CreateCQ())
	dom := obs.NewDomain(2)
	c.nic[1].SetObs(dom.Node(1))

	c.env.Go("sender", func(p *simtime.Proc) {
		// First datagram: no posted receive => silently dropped.
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpSend, WRID: 1, Signaled: true, LocalMR: src, Len: 32,
			DestNode: 1, DestQPN: qb.QPN(),
		})
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("UD send should complete OK locally, got %v", cqe.Status)
		}
		p.Sleep(10 * time.Microsecond)
		if n := dom.Total("rnic.ud_drops"); n != 1 {
			t.Errorf("rnic.ud_drops = %d, want 1", n)
		}
		// Second datagram: receive posted => delivered.
		_ = qb.PostRecv(PostedRecv{MR: rbuf, Len: 64, WRID: 2})
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpSend, WRID: 2, Signaled: false, LocalMR: src, Len: 32,
			DestNode: 1, DestQPN: qb.QPN(),
		})
		cqe := qb.RecvCQ().Poll(p)
		if cqe.Status != StatusOK || cqe.SrcNode != 0 {
			t.Errorf("recv cqe = %+v", cqe)
		}
	})
	c.run(t)

	// One-sided on UD is rejected synchronously.
	if err := c.nic[0].PostSend(0, qa, WR{Kind: OpWrite, LocalMR: src, Len: 8}); err != ErrUDOneSided {
		t.Fatalf("err = %v, want ErrUDOneSided", err)
	}
}

func TestFetchAddSerializes(t *testing.T) {
	c := newCluster(t, 3)
	target := c.physMR(t, 2, 4096, allPerm)
	const perNode = 50

	seen := make(map[uint64]bool)
	for node := 0; node < 2; node++ {
		node := node
		local := c.physMR(t, node, 4096, allPerm)
		qa, _ := c.rcPair(node, 2)
		c.env.Go("adder", func(p *simtime.Proc) {
			for i := 0; i < perNode; i++ {
				var old uint64
				_ = c.nic[node].PostSend(p.Now(), qa, WR{
					Kind: OpFetchAdd, WRID: uint64(i), Signaled: true,
					LocalMR: local, Len: 8,
					RemoteKey: target.Key(), RemoteOff: 0,
					Add: 1, AtomicResult: &old,
				})
				cqe := qa.SendCQ().Poll(p)
				if cqe.Status != StatusOK {
					t.Errorf("atomic status = %v", cqe.Status)
				}
				if seen[old] {
					t.Errorf("fetch-add returned duplicate old value %d", old)
				}
				seen[old] = true
			}
		})
	}
	c.run(t)
	var b [8]byte
	_ = target.ReadAt(0, b[:])
	if got := binary.LittleEndian.Uint64(b[:]); got != 2*perNode {
		t.Fatalf("counter = %d, want %d", got, 2*perNode)
	}
}

func TestCmpSwap(t *testing.T) {
	c := newCluster(t, 2)
	local := c.physMR(t, 0, 4096, allPerm)
	target := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	c.env.Go("swapper", func(p *simtime.Proc) {
		var old uint64
		// Swap 0 -> 42 succeeds.
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpCmpSwap, WRID: 1, Signaled: true, LocalMR: local, Len: 8,
			RemoteKey: target.Key(), Compare: 0, Swap: 42, AtomicResult: &old,
		})
		qa.SendCQ().Poll(p)
		if old != 0 {
			t.Errorf("old = %d, want 0", old)
		}
		// Swap 0 -> 7 fails (value is 42 now).
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpCmpSwap, WRID: 2, Signaled: true, LocalMR: local, Len: 8,
			RemoteKey: target.Key(), Compare: 0, Swap: 7, AtomicResult: &old,
		})
		qa.SendCQ().Poll(p)
		if old != 42 {
			t.Errorf("old = %d, want 42", old)
		}
		var b [8]byte
		_ = target.ReadAt(0, b[:])
		if got := binary.LittleEndian.Uint64(b[:]); got != 42 {
			t.Errorf("value = %d, want 42 (failed swap must not write)", got)
		}
	})
	c.run(t)

	if err := c.nic[0].PostSend(0, qa, WR{Kind: OpFetchAdd, LocalMR: local, Len: 4}); err != ErrAtomicSize {
		t.Fatalf("err = %v, want ErrAtomicSize", err)
	}
}

// The Figure 4 mechanism: with many MRs, the NIC key cache thrashes and
// write latency grows; with one (or few) MRs it stays flat.
func TestMRKeyCacheThrashing(t *testing.T) {
	avgLatency := func(nMRs int) simtime.Time {
		c := newCluster(t, 2)
		src := c.physMR(t, 0, 4096, allPerm)
		mrs := make([]*MR, nMRs)
		for i := range mrs {
			mrs[i] = c.physMR(t, 1, 4096, allPerm)
		}
		qa, _ := c.rcPair(0, 1)
		var total simtime.Time
		const ops = 400
		c.env.Go("writer", func(p *simtime.Proc) {
			rng := uint64(12345)
			for i := 0; i < ops; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				mr := mrs[rng%uint64(nMRs)]
				start := p.Now()
				_ = c.nic[0].PostSend(p.Now(), qa, WR{
					Kind: OpWrite, WRID: uint64(i), Signaled: true,
					LocalMR: src, Len: 64, RemoteKey: mr.Key(),
				})
				qa.SendCQ().Poll(p)
				total += p.Now() - start
			}
		})
		c.run(t)
		return total / ops
	}
	small := avgLatency(10)
	big := avgLatency(5000)
	if big < small+500*time.Nanosecond {
		t.Fatalf("latency with 5000 MRs (%v) should clearly exceed 10 MRs (%v)", big, small)
	}
}

// The Figure 5 mechanism: virtual MRs larger than the NIC PTE cache
// thrash; physical registrations never touch the PTE cache.
func TestPTECacheThrashing(t *testing.T) {
	run := func(phys bool, size int64) simtime.Time {
		c := newCluster(t, 2)
		src := c.physMR(t, 0, 4096, allPerm)
		var mr *MR
		if phys {
			mr = c.physMR(t, 1, size, allPerm)
		} else {
			va, err := c.as[1].Map(size)
			if err != nil {
				t.Fatal(err)
			}
			var rerr error
			mr, rerr = c.nic[1].RegisterMR(c.as[1], va, size, allPerm)
			if rerr != nil {
				t.Fatal(rerr)
			}
		}
		qa, _ := c.rcPair(0, 1)
		var total simtime.Time
		const warm, ops = 400, 1000
		c.env.Go("writer", func(p *simtime.Proc) {
			rng := uint64(99)
			for i := 0; i < warm+ops; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				off := int64(rng % uint64(size-64))
				start := p.Now()
				_ = c.nic[0].PostSend(p.Now(), qa, WR{
					Kind: OpWrite, WRID: uint64(i), Signaled: true,
					LocalMR: src, Len: 64, RemoteKey: mr.Key(), RemoteOff: off,
				})
				qa.SendCQ().Poll(p)
				if i >= warm {
					total += p.Now() - start
				}
			}
		})
		c.run(t)
		return total / ops
	}
	const big = 64 << 20 // 64 MB >> 4 MB PTE cache
	virt := run(false, big)
	phys := run(true, big)
	if virt < phys+500*time.Nanosecond {
		t.Fatalf("virtual-MR latency (%v) should exceed phys-MR latency (%v) at 64MB", virt, phys)
	}
	smallVirt := run(false, 1<<20) // 1 MB fits the PTE cache
	if virt < smallVirt+500*time.Nanosecond {
		t.Fatalf("64MB virtual (%v) should exceed 1MB virtual (%v)", virt, smallVirt)
	}
}

func TestLinkDownTimesOut(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.reg.fab.SetLinkDown(0, 1)

	c.env.Go("writer", func(p *simtime.Proc) {
		start := p.Now()
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWrite, WRID: 1, Signaled: true,
			LocalMR: src, Len: 64, RemoteKey: dst.Key(),
		})
		cqe := qa.SendCQ().Poll(p)
		if cqe.Status != StatusTimeout {
			t.Errorf("status = %v, want TIMEOUT", cqe.Status)
		}
		if el := p.Now() - start; el < c.cfg.RCTimeout {
			t.Errorf("timed out after %v, want >= %v", el, c.cfg.RCTimeout)
		}
	})
	c.run(t)
}

func TestDeregisterUnpins(t *testing.T) {
	c := newCluster(t, 1)
	va, err := c.as[0].Map(4 * c.cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := c.nic[0].RegisterMR(c.as[0], va, 4*c.cfg.PageSize, allPerm)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := c.as[0].Translate(va)
	// A pinned page cannot be freed; an unpinned one cannot be unpinned.
	if err := c.nic[0].Mem().Free(pa, c.cfg.PageSize); !errors.Is(err, hostmem.ErrPinned) {
		t.Fatalf("Free of a registered page: err = %v, want ErrPinned", err)
	}
	if err := c.nic[0].DeregisterMR(mr); err != nil {
		t.Fatal(err)
	}
	if err := c.nic[0].Mem().Unpin(pa, c.cfg.PageSize); !errors.Is(err, hostmem.ErrNotPinned) {
		t.Fatalf("Unpin after DeregisterMR: err = %v, want ErrNotPinned", err)
	}
	if err := c.nic[0].DeregisterMR(mr); err != ErrBadMR {
		t.Fatalf("double deregister err = %v, want ErrBadMR", err)
	}
}

func TestRCOrderingPerQP(t *testing.T) {
	// Two writes to the same location posted back to back must land in
	// order: the second value wins.
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)

	c.env.Go("writer", func(p *simtime.Proc) {
		_ = src.WriteAt(0, []byte{1})
		_ = src.WriteAt(1, []byte{2})
		_ = c.nic[0].PostSend(p.Now(), qa, WR{Kind: OpWrite, WRID: 1, Signaled: false, LocalMR: src, LocalOff: 0, Len: 1, RemoteKey: dst.Key(), RemoteOff: 0})
		_ = c.nic[0].PostSend(p.Now(), qa, WR{Kind: OpWrite, WRID: 2, Signaled: true, LocalMR: src, LocalOff: 1, Len: 1, RemoteKey: dst.Key(), RemoteOff: 0})
		qa.SendCQ().Poll(p)
		var b [1]byte
		_ = dst.ReadAt(0, b[:])
		if b[0] != 2 {
			t.Errorf("final value = %d, want 2 (second write)", b[0])
		}
	})
	c.run(t)
}
