package lite

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// testDep builds an n-node cluster with LITE booted on every node.
func testDep(t *testing.T, n int) (*cluster.Cluster, *Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	dep, err := Start(cls, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

func run(t *testing.T, cls *cluster.Cluster) {
	t.Helper()
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMallocWriteReadLocal(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.Malloc(p, 8192, "buf", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("local lmr data")
		if err := c.Write(p, h, 100, msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if err := c.Read(p, h, 100, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("got %q", got)
		}
	})
	run(t, cls)
}

func TestRemoteWriteReadAndLatency(t *testing.T) {
	cls, dep := testDep(t, 2)
	var lat simtime.Time
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// Allocate on node 1, access from node 0.
		h, err := c.MallocAt(p, []int{1}, 4096, "remote", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("remote write payload")
		// Warm caches.
		if err := c.Write(p, h, 0, msg); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if err := c.Write(p, h, 0, msg); err != nil {
			t.Fatal(err)
		}
		lat = p.Now() - start
		got := make([]byte, len(msg))
		if err := c.Read(p, h, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("got %q", got)
		}
	})
	run(t, cls)
	if lat < 1*time.Microsecond || lat > 4*time.Microsecond {
		t.Fatalf("warm LT_write latency = %v, want ~1.5-2.5us", lat)
	}
}

func TestMapByNameFromOtherNode(t *testing.T) {
	cls, dep := testDep(t, 3)
	ready := false
	var readyCond simtime.Cond
	cls.GoOn(1, "owner", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		h, err := c.Malloc(p, 4096, "shared-region", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(p, h, 0, []byte("shared!")); err != nil {
			t.Fatal(err)
		}
		ready = true
		readyCond.Broadcast(p.Env())
	})
	cls.GoOn(2, "mapper", func(p *simtime.Proc) {
		for !ready {
			readyCond.Wait(p)
		}
		c := dep.Instance(2).KernelClient()
		h, err := c.Map(p, "shared-region")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if err := c.Read(p, h, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "shared!" {
			t.Fatalf("got %q", got)
		}
		if err := c.Unmap(p, h); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(p, h, 0, got); err != ErrBadHandle {
			t.Fatalf("read after unmap err = %v, want ErrBadHandle", err)
		}
	})
	run(t, cls)
}

func TestMapUnknownName(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(1, "mapper", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		if _, err := c.Map(p, "nope"); err != ErrNoSuchName {
			t.Fatalf("err = %v, want ErrNoSuchName", err)
		}
	})
	run(t, cls)
}

func TestPermissionEnforcement(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// Default grant is read-only for other nodes.
		_, err := c.Malloc(p, 4096, "ro-region", PermRead)
		if err != nil {
			t.Fatal(err)
		}
	})
	cls.GoOn(1, "reader", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		h, err := c.Map(p, "ro-region")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := c.Read(p, h, 0, buf); err != nil {
			t.Fatalf("read should be allowed: %v", err)
		}
		if err := c.Write(p, h, 0, buf); err != ErrPermission {
			t.Fatalf("write err = %v, want ErrPermission", err)
		}
	})
	run(t, cls)
}

func TestGrantChangesPermissionWithoutReregistration(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.Malloc(p, 4096, "grant-region", 0) // no default grant
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Grant(p, h, 1, PermRead|PermWrite); err != nil {
			t.Fatal(err)
		}
	})
	cls.GoOn(1, "writer", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		h, err := c.Map(p, "grant-region")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(p, h, 0, []byte("granted")); err != nil {
			t.Fatal(err)
		}
	})
	run(t, cls)
}

func TestFreeInvalidatesRemoteHandles(t *testing.T) {
	cls, dep := testDep(t, 2)
	var h1 LH
	mapped := false
	var cond simtime.Cond
	cls.GoOn(1, "mapper", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		// Wait for the region to exist.
		var err error
		for {
			h1, err = c.Map(p, "to-free")
			if err == nil {
				break
			}
			p.Sleep(20 * time.Microsecond)
		}
		mapped = true
		cond.Broadcast(p.Env())
		// Wait for the owner to free it.
		p.Sleep(200 * time.Microsecond)
		buf := make([]byte, 4)
		err = c.Read(p, h1, 0, buf)
		if err != ErrBadHandle && err != ErrFreed {
			t.Fatalf("read after free err = %v", err)
		}
	})
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.Malloc(p, 4096, "to-free", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		for !mapped {
			cond.Wait(p)
		}
		if err := c.Free(p, h); err != nil {
			t.Fatal(err)
		}
		// Its memory is back.
		if _, err := c.Map(p, "to-free"); err != ErrNoSuchName {
			t.Fatalf("map after free err = %v, want ErrNoSuchName", err)
		}
	})
	run(t, cls)
}

func TestLargeChunkedLMR(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// 10 MB LMR on node 1: split into 4 MB + 4 MB + 2 MB chunks.
		h, err := c.MallocAt(p, []int{1}, 10<<20, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		// Write spanning the chunk boundary at 4 MB.
		data := make([]byte, 1<<20)
		for i := range data {
			data[i] = byte(i * 31)
		}
		off := int64(4<<20 - 512*1024)
		if err := c.Write(p, h, off, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := c.Read(p, h, off, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("cross-chunk round trip mismatch")
		}
	})
	run(t, cls)
}

func TestSpreadLMRAcrossNodes(t *testing.T) {
	cls, dep := testDep(t, 3)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// 8 MB across nodes 1 and 2 (the paper: "An LMR can even
		// spread across different machines").
		h, err := c.MallocAt(p, []int{1, 2}, 8<<20, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 6<<20)
		for i := range data {
			data[i] = byte(i >> 8)
		}
		if err := c.Write(p, h, 1<<20, data); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := c.Read(p, h, 1<<20, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("spread LMR round trip mismatch")
		}
	})
	run(t, cls)
}

func TestBoundsChecking(t *testing.T) {
	cls, dep := testDep(t, 1)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, _ := c.Malloc(p, 4096, "", PermRead|PermWrite)
		buf := make([]byte, 16)
		if err := c.Read(p, h, 4090, buf); err != ErrBounds {
			t.Fatalf("err = %v, want ErrBounds", err)
		}
		if err := c.Write(p, h, -1, buf); err != ErrBounds {
			t.Fatalf("err = %v, want ErrBounds", err)
		}
	})
	run(t, cls)
}

func TestMemsetMemcpyRemote(t *testing.T) {
	cls, dep := testDep(t, 3)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		src, err := c.MallocAt(p, []int{1}, 8192, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := c.MallocAt(p, []int{2}, 8192, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Memset(p, src, 0, 0xAB, 4096); err != nil {
			t.Fatal(err)
		}
		if err := c.Memcpy(p, dst, 100, src, 0, 4096); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if err := c.Read(p, dst, 100, got); err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0xAB {
				t.Fatalf("memcpy'd byte = %#x, want 0xAB", b)
			}
		}
	})
	run(t, cls)
}

func TestMemcpySameNode(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		src, _ := c.MallocAt(p, []int{1}, 4096, "", PermRead|PermWrite)
		dst, _ := c.MallocAt(p, []int{1}, 4096, "", PermRead|PermWrite)
		if err := c.Memset(p, src, 0, 0x5A, 512); err != nil {
			t.Fatal(err)
		}
		if err := c.Memcpy(p, dst, 0, src, 0, 512); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 512)
		_ = c.Read(p, dst, 0, got)
		for _, b := range got {
			if b != 0x5A {
				t.Fatalf("byte = %#x", b)
			}
		}
	})
	run(t, cls)
}

func TestFetchAddConcurrent(t *testing.T) {
	cls, dep := testDep(t, 4)
	const perNode = 30
	var counterLH [4]LH
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		_, err := c.Malloc(p, 64, "counter", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
	})
	for n := 1; n < 4; n++ {
		n := n
		cls.GoOn(n, "adder", func(p *simtime.Proc) {
			p.Sleep(50 * time.Microsecond)
			c := dep.Instance(n).KernelClient()
			h, err := c.Map(p, "counter")
			if err != nil {
				t.Fatal(err)
			}
			counterLH[n] = h
			for k := 0; k < perNode; k++ {
				if _, err := c.FetchAdd(p, h, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	run(t, cls)
	// Verify the final count through a fresh read.
	cls2 := cls
	_ = cls2
	cfg := params.Default()
	_ = cfg
	// Re-enter the simulation to read the counter.
	cls.GoOn(1, "checker", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		v, err := c.FetchAdd(p, counterLH[1], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != 3*perNode {
			t.Fatalf("counter = %d, want %d", v, 3*perNode)
		}
	})
	run(t, cls)
}

func TestTestSet(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, _ := c.MallocAt(p, []int{1}, 64, "", PermRead|PermWrite)
		old, err := c.TestSet(p, h, 0, 1)
		if err != nil || old != 0 {
			t.Fatalf("first test-set: old=%d err=%v", old, err)
		}
		old, err = c.TestSet(p, h, 0, 1)
		if err != nil || old != 1 {
			t.Fatalf("second test-set: old=%d err=%v (must fail to set)", old, err)
		}
	})
	run(t, cls)
}
