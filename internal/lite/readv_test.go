package lite

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// pattern fills n bytes with a recognisable per-LMR sequence.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7)
	}
	return b
}

// mallocFilled allocates an LMR on the given home nodes from client c
// and fills it with pattern(tag).
func mallocFilled(p *simtime.Proc, c *Client, homes []int, size int, tag byte) (LH, error) {
	h, err := c.MallocAt(p, homes, int64(size), "", PermRead|PermWrite)
	if err != nil {
		return 0, err
	}
	return h, c.Write(p, h, 0, pattern(tag, size))
}

// doorbells sums the doorbell rings of every NIC in the cluster.
func doorbells(cls *cluster.Cluster) (n int64) {
	for _, node := range cls.Nodes {
		n += node.NIC.Doorbells
	}
	return n
}

// heldSlots returns the send-queue slots currently taken on inst's QPs
// to dst, and how many of them lazy signaling accounts for.
func heldSlots(inst *Instance, dst int) (held, lazy int) {
	for _, sig := range inst.qpSig[dst] {
		h, l := sig.sq.used()
		held += h
		lazy += l
	}
	return held, lazy
}

// ReadV must return exactly the bytes N separate Reads return, for
// local segments, remote segments, segments on two different remote
// nodes, and an LMR whose chunks alternate between nodes — and it must
// do the remote part in chains: consecutive segments on one node share
// one doorbell, a change of node starts the next chain.
func TestReadVMatchesReads(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 3, 1<<30)
	opts := DefaultOptions()
	opts.MaxChunkBytes = 4096 // so a 16 KB LMR on {1,2} alternates nodes
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		var hs [4]LH
		for k, homes := range [][]int{{0}, {1}, {2}, {1, 2}} {
			h, err := mallocFilled(p, c, homes, 16<<10, byte(k+1))
			if err != nil {
				t.Error(err)
				return
			}
			hs[k] = h
		}
		check := func(name string, wantBells int64, segs []ReadSeg) {
			want := make([][]byte, len(segs))
			for k, s := range segs {
				want[k] = make([]byte, len(s.Buf))
				if err := c.Read(p, s.LH, s.Off, want[k]); err != nil {
					t.Errorf("%s: Read seg %d: %v", name, k, err)
				}
			}
			bells := doorbells(cls)
			if err := c.ReadV(p, segs); err != nil {
				t.Errorf("%s: ReadV: %v", name, err)
			}
			for k, s := range segs {
				if !bytes.Equal(s.Buf, want[k]) {
					t.Errorf("%s: segment %d differs from Read", name, k)
				}
			}
			if got := doorbells(cls) - bells; got != wantBells {
				t.Errorf("%s: %d doorbells, want %d", name, got, wantBells)
			}
		}
		buf := func(n int) []byte { return make([]byte, n) }
		check("empty", 0, nil)
		check("local only", 0, []ReadSeg{{hs[0], 0, buf(64)}, {hs[0], 100, buf(9)}})
		check("one remote node", 1, []ReadSeg{{hs[1], 0, buf(128)}, {hs[1], 8000, buf(8)}, {hs[1], 40, buf(0)}})
		check("local between remotes", 1, []ReadSeg{{hs[1], 8, buf(8)}, {hs[0], 8, buf(8)}, {hs[1], 16, buf(8)}})
		check("two remote nodes", 2, []ReadSeg{{hs[1], 0, buf(32)}, {hs[2], 0, buf(32)}})
		check("node runs", 3, []ReadSeg{{hs[1], 0, buf(8)}, {hs[2], 0, buf(8)}, {hs[2], 8, buf(8)}, {hs[1], 8, buf(8)}})
		check("spanning LMR", 4, []ReadSeg{{hs[3], 100, buf(16000)}}) // chunks on 1,2,1,2
	})
	run(t, cls)
}

// Each segment gets Read's checks, and a vector with a bad segment
// moves no byte and posts no work request — whichever segment is bad.
func TestReadVPerSegmentErrors(t *testing.T) {
	cls, dep := testDep(t, 2)
	var writeOnly LH
	cls.GoOn(1, "owner", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		if _, err := c.Malloc(p, 4096, "write-only", PermWrite); err != nil {
			t.Error(err)
		}
	})
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		p.Sleep(200 * time.Microsecond) // after the owner's Malloc
		inst := dep.Instance(0)
		c := inst.KernelClient()
		good, err := mallocFilled(p, c, []int{1}, 4096, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if writeOnly, err = c.Map(p, "write-only"); err != nil {
			t.Error(err)
			return
		}
		t7 := inst.TenantClient(7)
		owned, err := t7.Malloc(p, 4096, "", PermRead|PermWrite)
		if err != nil {
			t.Error(err)
			return
		}
		cases := []struct {
			name string
			c    *Client
			bad  ReadSeg
			want error
		}{
			{"permission", c, ReadSeg{writeOnly, 0, make([]byte, 8)}, ErrPermission},
			{"bounds", c, ReadSeg{good, 4090, make([]byte, 8)}, ErrBounds},
			{"negative offset", c, ReadSeg{good, -8, make([]byte, 8)}, ErrBounds},
			{"bad handle", c, ReadSeg{LH(1 << 40), 0, make([]byte, 8)}, ErrBadHandle},
			{"tenant", inst.TenantClient(9), ReadSeg{owned, 0, make([]byte, 8)}, ErrTenantDenied},
		}
		for _, tc := range cases {
			for _, pos := range []int{0, 1} { // bad segment first, then last
				first := ReadSeg{good, 0, make([]byte, 16)}
				if tc.c.tenant != 0 {
					first = ReadSeg{owned, 0, nil} // a tenant cannot name the kernel's handle either
				}
				segs := []ReadSeg{first, tc.bad}
				if pos == 0 {
					segs = []ReadSeg{tc.bad, first}
				}
				posted := inst.node.NIC.OpsPosted
				err := tc.c.ReadV(p, segs)
				if !errors.Is(err, tc.want) {
					t.Errorf("%s at %d: err = %v, want %v", tc.name, pos, err, tc.want)
				}
				if inst.node.NIC.OpsPosted != posted {
					t.Errorf("%s at %d: a rejected vector posted work requests", tc.name, pos)
				}
				if !bytes.Equal(first.Buf, make([]byte, len(first.Buf))) {
					t.Errorf("%s at %d: a rejected vector still filled a buffer", tc.name, pos)
				}
			}
		}
	})
	run(t, cls)
}

// A chain takes one send-queue slot per WR for as long as it is in
// flight and gives every one back; a vector longer than the send queue
// is posted as several chains, never one that overruns qpDepth.
func TestReadVSendQueueSlots(t *testing.T) {
	cls, dep := testDep(t, 2)
	inst := dep.Instance(0)
	var h LH
	var base int
	ready := false
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := inst.KernelClient()
		var err error
		if h, err = mallocFilled(p, c, []int{1}, 8192, 3); err != nil {
			t.Error(err)
			return
		}
		base, _ = heldSlots(inst, 1)
		ready = true
		five := make([]ReadSeg, 5)
		for k := range five {
			five[k] = ReadSeg{h, int64(k) * 64, make([]byte, 64)}
		}
		if err := c.ReadV(p, five); err != nil {
			t.Error(err)
		}
		// Three and a half send queues' worth in one vector.
		const n = 3*qpDepth + qpDepth/2
		many := make([]ReadSeg, n)
		for k := range many {
			many[k] = ReadSeg{h, int64(k) * 8, make([]byte, 8)}
		}
		bells := doorbells(cls)
		if err := c.ReadV(p, many); err != nil {
			t.Error(err)
		}
		if got := doorbells(cls) - bells; got < 4 {
			t.Errorf("%d WRs went out behind %d doorbells: some chain overran the %d-deep send queue", n, got, qpDepth)
		}
		want := pattern(3, 8192)
		for k, s := range many {
			if !bytes.Equal(s.Buf, want[k*8:k*8+8]) {
				t.Errorf("segment %d of the long vector read wrong bytes", k)
			}
		}
		if held, lazy := heldSlots(inst, 1); held != lazy {
			t.Errorf("%d slots held after the chains completed, %d accounted to lazy signaling", held, lazy)
		}
	})
	// Sample the send queues while the five-WR chain is on the wire.
	cls.GoOn(0, "sampler", func(p *simtime.Proc) {
		for !ready {
			p.Sleep(100)
		}
		p.Sleep(time.Microsecond)
		if held, _ := heldSlots(inst, 1); held-base != 5 {
			t.Errorf("mid-flight: the 5-WR chain holds %d slots", held-base)
		}
	})
	run(t, cls)
}

// A segment lost on the wire leaves no completion behind when it is an
// unsignaled chain member; ReadV must still fail, not hand back a
// buffer that was never filled.
func TestReadVLostSegmentFails(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := mallocFilled(p, c, []int{1}, 4096, 5)
		if err != nil {
			t.Error(err)
			return
		}
		drops := 0
		cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
			if src == 0 && dst == 1 {
				drops++
			}
			return src == 0 && dst == 1 && drops == 1
		})
		segs := []ReadSeg{{h, 0, make([]byte, 8)}, {h, 8, make([]byte, 8)}}
		if err := c.ReadV(p, segs); !errors.Is(err, ErrTimeout) {
			t.Errorf("ReadV over a lost first segment: err = %v, want ErrTimeout", err)
		}
		cls.Fab.SetDropHook(nil)
		if err := c.ReadV(p, segs); err != nil {
			t.Errorf("ReadV after the loss: %v", err)
		}
		if want := pattern(5, 16); !bytes.Equal(append(segs[0].Buf, segs[1].Buf...), want) {
			t.Errorf("ReadV after the loss read %x %x", segs[0].Buf, segs[1].Buf)
		}
	})
	run(t, cls)
}

// The same rule when the lost segment is longer than one MTU and its
// second response packet is the one dropped, after its first packet
// went out and the segment behind it was held: the chain's signaled
// last READ reports the loss instead of success over a buffer that was
// never filled.
func TestReadVLostPacketOfLargeSegmentFails(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := mallocFilled(p, c, []int{1}, 16<<10, 5)
		if err != nil {
			t.Error(err)
			return
		}
		packets := 0
		cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
			if src == 1 && dst == 0 && size > 4096 {
				packets++ // a full response packet of the 8 KB segment
			}
			return src == 1 && dst == 0 && size > 4096 && packets == 2
		})
		segs := []ReadSeg{{h, 0, make([]byte, 8<<10)}, {h, 8 << 10, make([]byte, 8)}}
		if err := c.ReadV(p, segs); !errors.Is(err, ErrTimeout) {
			t.Errorf("ReadV over a segment that lost its second packet: err = %v, want ErrTimeout", err)
		}
		if packets < 2 {
			t.Errorf("the fabric carried %d full response packets, want the segment's 2", packets)
		}
		cls.Fab.SetDropHook(nil)
		if err := c.ReadV(p, segs); err != nil {
			t.Errorf("ReadV after the loss: %v", err)
		}
		if want := pattern(5, 8<<10+8); !bytes.Equal(append(segs[0].Buf, segs[1].Buf...), want) {
			t.Error("ReadV after the loss read the wrong bytes")
		}
	})
	run(t, cls)
}
