package litelog

import (
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

func TestAppendScanRoundTrip(t *testing.T) {
	cls, dep := testEnv(t, 2)
	cls.GoOn(1, "writer", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		lg, err := Create(p, c, 0, 1<<20, "log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(p, [][]byte{[]byte("alpha"), []byte("beta")}); err != nil {
			t.Fatal(err)
		}
		if _, err := lg.Append(p, [][]byte{[]byte("gamma")}); err != nil {
			t.Fatal(err)
		}
		tail, _ := lg.Tail(p)
		var got []string
		if err := lg.Scan(p, 0, tail, func(e []byte) { got = append(got, string(e)) }); err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha", "beta", "gamma"}
		if len(got) != len(want) {
			t.Fatalf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWritersNoOverlap(t *testing.T) {
	cls, dep := testEnv(t, 3)
	const perWriter = 40
	cls.GoOn(0, "creator", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := Create(p, c, 0, 1<<20, "clog"); err != nil {
			t.Fatal(err)
		}
	})
	for n := 1; n < 3; n++ {
		n := n
		cls.GoOn(n, "writer", func(p *simtime.Proc) {
			p.Sleep(100 * time.Microsecond)
			c := dep.Instance(n).KernelClient()
			lg, err := Open(p, c, "clog", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < perWriter; k++ {
				entry := []byte{byte(n), byte(k), 0xEE}
				if _, err := lg.Append(p, [][]byte{entry}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	// Verify all records landed without overlap.
	cls.GoOn(1, "scanner", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		lg, err := Open(p, c, "clog", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		tail, _ := lg.Tail(p)
		seen := make(map[[2]byte]bool)
		if err := lg.Scan(p, 0, tail, func(e []byte) {
			if len(e) != 3 || e[2] != 0xEE {
				t.Fatalf("corrupt entry %v", e)
			}
			k := [2]byte{e[0], e[1]}
			if seen[k] {
				t.Fatalf("duplicate entry %v", k)
			}
			seen[k] = true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2*perWriter {
			t.Fatalf("scanned %d entries, want %d", len(seen), 2*perWriter)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanerAdvancesHead(t *testing.T) {
	cls, dep := testEnv(t, 2)
	cls.GoOn(1, "worker", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		lg, err := Create(p, c, 0, 1<<16, "cleanlog")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, err := lg.Append(p, [][]byte{make([]byte, 100)}); err != nil {
				t.Fatal(err)
			}
		}
		tail, _ := lg.Tail(p)
		if err := lg.Clean(p, tail); err != nil {
			t.Fatal(err)
		}
		head, _ := lg.Head(p)
		if head != tail {
			t.Fatalf("head = %d, want %d", head, tail)
		}
		// Cleaned region no longer scans as committed.
		count := 0
		_ = lg.Scan(p, 0, tail, func([]byte) { count++ })
		if count != 0 {
			t.Fatalf("scanned %d entries after clean", count)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLogFull(t *testing.T) {
	cls, dep := testEnv(t, 2)
	cls.GoOn(1, "writer", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		lg, err := Create(p, c, 0, 4096, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		var sawFull bool
		for k := 0; k < 20; k++ {
			if _, err := lg.Append(p, [][]byte{make([]byte, 400)}); err == ErrLogFull {
				sawFull = true
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if !sawFull {
			t.Fatal("never observed ErrLogFull on a tiny log")
		}
		if _, err := lg.Append(p, [][]byte{make([]byte, 8192)}); err != ErrTooLarge {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitThroughputOrder(t *testing.T) {
	// §8.1: two nodes committing 16B single-entry transactions reach
	// hundreds of thousands of commits/second.
	cls, dep := testEnv(t, 3)
	const perThread = 100
	threads := 0
	cls.GoOn(0, "creator", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := Create(p, c, 0, 8<<20, "tlog"); err != nil {
			t.Fatal(err)
		}
	})
	for n := 1; n <= 2; n++ {
		for th := 0; th < 4; th++ {
			n := n
			threads++
			cls.GoOn(n, "committer", func(p *simtime.Proc) {
				p.Sleep(100 * time.Microsecond)
				c := dep.Instance(n).KernelClient()
				lg, err := Open(p, c, "tlog", 8<<20)
				if err != nil {
					t.Fatal(err)
				}
				entry := make([]byte, 16)
				for k := 0; k < perThread; k++ {
					if _, err := lg.Append(p, [][]byte{entry}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	total := float64(threads * perThread)
	rate := total / cls.Env.Now().Seconds()
	if rate < 300e3 {
		t.Fatalf("commit rate = %.0f/s, want several hundred thousand", rate)
	}
}
