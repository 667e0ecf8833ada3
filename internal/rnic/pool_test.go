package rnic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lite/internal/hostmem"
	"lite/internal/simtime"
)

// out returns how many payload buffers are taken and not yet returned.
func out(r *Registry) int { return r.bufs.gets - r.bufs.puts }

// pooled returns how many buffers the registry's pool holds idle.
func pooled(r *Registry) int {
	n := 0
	for _, f := range r.bufs.free {
		n += len(f)
	}
	return n
}

func TestBufClasses(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want int
	}{{1, 6}, {64, 6}, {65, 7}, {4096, 12}, {4097, 13}, {64 << 10, 16}, {1 << 20, 20}, {1<<20 + 1, -1}} {
		if got := bufClass(tc.n); got != tc.want {
			t.Errorf("bufClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	var b bufPool
	big := b.get(2 << 20)
	b.put(big)
	if b.gets != b.puts || len(b.free[maxBufShift]) != 0 {
		t.Fatalf("an unpooled size was kept: %d out, largest class holds %d", b.gets-b.puts, len(b.free[maxBufShift]))
	}
}

// A pooled buffer is not zeroed, so a read whose remote DMA fails must
// clear the staging buffer: the caller gets zeros, as it would from a
// fresh one, not the bytes an earlier read left in the pool.
func TestFailedRemoteReadScattersZeros(t *testing.T) {
	c := newCluster(t, 2)
	const size = 64 << 10
	local := make([]byte, size)
	good := c.physMR(t, 1, size, allPerm)
	// A region registered past the end of node 1's memory: the key and
	// bounds checks pass, the DMA read itself fails.
	end := c.nic[1].Mem().TotalBytes()
	bad, err := c.nic[1].RegisterPhysMR(c.as[1], hostmem.PAddr(end-4096), size, allPerm)
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := c.rcPair(0, 1)
	c.env.Go("reader", func(p *simtime.Proc) {
		if err := good.WriteAt(0, bytes.Repeat([]byte{0xAB}, size)); err != nil {
			t.Error(err)
			return
		}
		for k, mr := range []*MR{good, bad} {
			for i := range local {
				local[i] = 0xFF
			}
			if err := c.nic[0].PostSend(p.Now(), qa, WR{
				Kind: OpRead, WRID: uint64(k + 1), Signaled: true,
				LocalBuf: local, Len: size, RemoteKey: mr.Key(),
			}); err != nil {
				t.Error(err)
				return
			}
			if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
				t.Errorf("read %d: status %v", k, cqe.Status)
			}
		}
		if !bytes.Equal(local, make([]byte, size)) {
			t.Errorf("the failed read scattered non-zero bytes (first %#x)", local[0])
		}
	})
	c.run(t)
	if out(c.reg) != 0 {
		t.Fatalf("%d payload buffers still out after both reads completed", out(c.reg))
	}
}

// A write-imm whose receiver never posts a receive gives its payload
// back once, when the last RNR retry gives up.
func TestRNRExhaustedWriteImmReturnsBufferOnce(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, _ := c.rcPair(0, 1)
	c.env.Go("sender", func(p *simtime.Proc) {
		_ = c.nic[0].PostSend(p.Now(), qa, WR{
			Kind: OpWriteImm, WRID: 5, Signaled: true,
			LocalMR: src, Len: 4096, RemoteKey: dst.Key(), Imm: 1,
		})
		if out(c.reg) != 1 {
			t.Errorf("%d buffers out while the write-imm retries, want 1", out(c.reg))
		}
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusRNRExceeded {
			t.Errorf("status = %v, want RNR_EXCEEDED", cqe.Status)
		}
	})
	c.run(t)
	if out(c.reg) != 0 || len(c.reg.bufs.free[bufClass(4096)]) != 1 || pooled(c.reg) != 1 {
		t.Fatalf("after RNR exhaustion: %d out, %d pooled; want the one buffer back exactly once",
			out(c.reg), pooled(c.reg))
	}
}

// Zero-length writes, write-imms, reads and UD sends carry no payload
// and take no buffer.
func TestZeroLengthOpsTakeNoBuffer(t *testing.T) {
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)
	ua := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
	ub := c.nic[1].CreateQP(UD, c.nic[1].CreateCQ(), c.nic[1].CreateCQ())
	_ = qb.PostRecv(PostedRecv{MR: dst, Len: 0, WRID: 1})
	_ = ub.PostRecv(PostedRecv{MR: dst, Len: 0, WRID: 2})
	c.env.Go("poster", func(p *simtime.Proc) {
		wrs := []WR{
			{Kind: OpWrite, LocalMR: src, RemoteKey: dst.Key()},
			{Kind: OpWriteImm, RemoteKey: dst.Key(), Imm: 7},
			{Kind: OpRead, LocalMR: src, RemoteKey: dst.Key()},
			{Kind: OpSend, LocalMR: src, DestNode: 1, DestQPN: ub.QPN()},
		}
		for k, wr := range wrs {
			wr.WRID, wr.Signaled = uint64(k+1), true
			qp := qa
			if wr.Kind == OpSend {
				qp = ua
			}
			if err := c.nic[0].PostSend(p.Now(), qp, wr); err != nil {
				t.Errorf("%v: %v", wr.Kind, err)
				return
			}
			if cqe := qp.SendCQ().Poll(p); cqe.Status != StatusOK {
				t.Errorf("%v: status %v", wr.Kind, cqe.Status)
			}
			if c.reg.bufs.gets != 0 {
				t.Errorf("%v took a payload buffer", wr.Kind)
			}
		}
	})
	c.run(t)
}

// Four requesters read and write overlapping 64 KB ranges of one region
// at once, as the mem-mixed workload does: every write stores the
// pattern the region always holds, so every byte any read returns is
// checked against it, and a payload buffer recycled while still in
// use shows up as a mismatch.
func TestOverlapping64KReadsAndWritesKeepPattern(t *testing.T) {
	const (
		clients = 4
		size    = 256 << 10
		opLen   = 64 << 10
		ops     = 60
	)
	word := func(off int64) uint64 { return uint64(off) * 0x9e3779b97f4a7c15 }
	fill := func(buf []byte, off int64) {
		for i := 0; i+8 <= len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], word(off+int64(i)))
		}
	}
	c := newCluster(t, clients+1)
	home := c.physMR(t, clients, size, allPerm)
	all := make([]byte, size)
	fill(all, 0)
	if err := home.WriteAt(0, all); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n := 0; n < clients; n++ {
		for w := 0; w < 2; w++ {
			// Two requesters per client, each polling its own QP.
			qa, _ := c.rcPair(n, clients)
			n, seed := n, uint64(n*2+w+1)
			c.env.Go("client", func(p *simtime.Proc) {
				buf := make([]byte, opLen)
				for k := 0; k < ops; k++ {
					seed ^= seed << 13
					seed ^= seed >> 7
					seed ^= seed << 17
					off := int64(seed%((size-opLen)/8)) * 8
					wr := WR{WRID: uint64(k + 1), Signaled: true, LocalBuf: buf, Len: opLen, RemoteKey: home.Key(), RemoteOff: off}
					if seed&(1<<40) != 0 {
						wr.Kind = OpWrite
						fill(buf, off)
					} else {
						wr.Kind = OpRead
						clear(buf)
					}
					if err := c.nic[n].PostSend(p.Now(), qa, wr); err != nil {
						t.Error(err)
						return
					}
					if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
						t.Errorf("client %d op %d: status %v", n, k, cqe.Status)
						return
					}
					if wr.Kind != OpRead {
						continue
					}
					for i := 0; i < opLen; i += 8 {
						if got := binary.LittleEndian.Uint64(buf[i:]); got != word(off+int64(i)) {
							t.Errorf("client %d read at %d: word %d is %#x, want %#x", n, off, i/8, got, word(off+int64(i)))
							return
						}
					}
					checked++
				}
			})
		}
	}
	c.run(t)
	if checked == 0 {
		t.Fatal("no read was checked")
	}
	if out(c.reg) != 0 {
		t.Fatalf("%d payload buffers still out", out(c.reg))
	}
}
