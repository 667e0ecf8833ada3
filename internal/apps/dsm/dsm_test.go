package dsm

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

func testEnv(t *testing.T, n int) (*cluster.Cluster, *lite.Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

func TestLocalReadWriteRoundTrip(t *testing.T) {
	cls, dep := testEnv(t, 3)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		sys, err := Boot(p, cls, dep, []int{0, 1, 2}, 1<<20, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		data := make([]byte, 20000) // spans several pages and homes
		for i := range data {
			data[i] = byte(i * 13)
		}
		d.Acquire(p)
		if err := d.Write(p, 1000, data); err != nil {
			t.Fatal(err)
		}
		if err := d.Release(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := d.Read(p, 1000, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseConsistencyAcrossNodes(t *testing.T) {
	cls, dep := testEnv(t, 3)
	ready := false
	var cond simtime.Cond
	var sys *System
	cls.GoOn(0, "writer", func(p *simtime.Proc) {
		var err error
		sys, err = Boot(p, cls, dep, []int{0, 1, 2}, 1<<20, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		d.Acquire(p)
		if err := d.Write(p, 5000, []byte("epoch-one")); err != nil {
			t.Fatal(err)
		}
		if err := d.Release(p); err != nil {
			t.Fatal(err)
		}
		ready = true
		cond.Broadcast(p.Env())
	})
	cls.GoOn(1, "reader", func(p *simtime.Proc) {
		for !ready {
			cond.Wait(p)
		}
		d := sys.Node(1)
		d.Acquire(p)
		got := make([]byte, 9)
		if err := d.Read(p, 5000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "epoch-one" {
			t.Fatalf("got %q", got)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidationPropagatesNewData(t *testing.T) {
	cls, dep := testEnv(t, 2)
	var sys *System
	step := 0
	var cond simtime.Cond
	wait := func(p *simtime.Proc, s int) {
		for step < s {
			cond.Wait(p)
		}
	}
	bump := func(p *simtime.Proc) {
		step++
		cond.Broadcast(p.Env())
	}
	cls.GoOn(0, "writer", func(p *simtime.Proc) {
		var err error
		sys, err = Boot(p, cls, dep, []int{0, 1}, 1<<20, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		d.Acquire(p)
		_ = d.Write(p, 0, []byte("v1"))
		_ = d.Release(p)
		bump(p) // step 1: v1 visible
		wait(p, 2)
		d.Acquire(p)
		_ = d.Write(p, 0, []byte("v2"))
		if err := d.Release(p); err != nil {
			t.Fatal(err)
		}
		bump(p) // step 3: v2 visible
	})
	cls.GoOn(1, "reader", func(p *simtime.Proc) {
		wait(p, 1)
		d := sys.Node(1)
		d.Acquire(p)
		got := make([]byte, 2)
		_ = d.Read(p, 0, got) // caches the page
		if string(got) != "v1" {
			t.Fatalf("first read = %q", got)
		}
		bump(p) // step 2
		wait(p, 3)
		d.Acquire(p)
		if err := d.Read(p, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "v2" {
			t.Fatalf("read after invalidation = %q, want v2", got)
		}
		if d.Invalidates == 0 {
			t.Fatal("no invalidation recorded at the reader")
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadLatencyScale(t *testing.T) {
	// §8.4: a remote 4KB random read is on the order of 10us (page
	// fault + one-sided read).
	cls, dep := testEnv(t, 4)
	var lat simtime.Time
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		sys, err := Boot(p, cls, dep, []int{0, 1, 2, 3}, 1<<22, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		buf := make([]byte, 4096)
		// Page 1 homes on node 1 (remote).
		start := p.Now()
		if err := d.Read(p, 4096, buf); err != nil {
			t.Fatal(err)
		}
		lat = p.Now() - start
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if lat < 5*time.Microsecond || lat > 30*time.Microsecond {
		t.Fatalf("remote 4KB DSM read = %v, want ~10us", lat)
	}
}

func TestBounds(t *testing.T) {
	cls, dep := testEnv(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		sys, err := Boot(p, cls, dep, []int{0, 1}, 8192, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		if err := d.Read(p, 8000, make([]byte, 1000)); err != ErrBounds {
			t.Fatalf("err = %v, want ErrBounds", err)
		}
		if err := d.Write(p, -1, []byte{1}); err != ErrBounds {
			t.Fatalf("err = %v, want ErrBounds", err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedReadsAreFast(t *testing.T) {
	cls, dep := testEnv(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		sys, err := Boot(p, cls, dep, []int{0, 1}, 1<<20, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := sys.Node(0)
		buf := make([]byte, 4096)
		_ = d.Read(p, 4096, buf) // fault
		faults := d.Faults
		start := p.Now()
		_ = d.Read(p, 4096, buf) // cached
		if d.Faults != faults {
			t.Fatal("second read faulted")
		}
		if el := p.Now() - start; el > time.Microsecond {
			t.Fatalf("cached read took %v", el)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBootNamesAreDeploymentScoped: a DSM names its home LMRs from
// deployment-scoped state (lite.Deployment.NextAppSeq), so the first
// DSM on every fresh deployment has the same names, whatever booted
// earlier in the process.
func TestBootNamesAreDeploymentScoped(t *testing.T) {
	for k := 0; k < 2; k++ {
		cls, dep := testEnv(t, 2)
		cls.GoOn(0, "app", func(p *simtime.Proc) {
			if _, err := Boot(p, cls, dep, []int{0, 1}, 1<<16, DefaultConfig()); err != nil {
				t.Error(err)
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
		if dep.LMRSizeByName("dsm1-home-0") == 0 {
			t.Errorf("DSM %d on a fresh deployment published no dsm1-home-0", k)
		}
	}
}
