package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/workload"
)

func testEnv(t testing.TB, n int) (*cluster.Cluster, *lite.Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, n, 1<<30)
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

func TestPutGetDelete(t *testing.T) {
	cls, dep := testEnv(t, 3)
	s, err := Start(cls, dep, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(2, "client", func(p *simtime.Proc) {
		k := s.NewClient(2)
		if _, err := k.Get(p, "missing"); err != ErrNotFound {
			t.Fatalf("get missing err = %v", err)
		}
		if err := k.Put(p, "a", []byte("value-a")); err != nil {
			t.Fatal(err)
		}
		v, err := k.Get(p, "a")
		if err != nil || string(v) != "value-a" {
			t.Fatalf("get = %q, %v", v, err)
		}
		if err := k.Delete(p, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Get(p, "a"); err != ErrNotFound {
			t.Fatalf("get after delete err = %v", err)
		}
		if err := k.Delete(p, "a"); err != ErrNotFound {
			t.Fatalf("double delete err = %v", err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGetIsOneSidedAfterFirst(t *testing.T) {
	cls, dep := testEnv(t, 2)
	s, err := Start(cls, dep, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		if err := k.Put(p, "hot", make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Get(p, "hot"); err != nil {
			t.Fatal(err)
		}
		lookups := k.MetaLookups
		start := p.Now()
		const gets = 50
		for i := 0; i < gets; i++ {
			if _, err := k.Get(p, "hot"); err != nil {
				t.Fatal(err)
			}
		}
		lat := (p.Now() - start) / gets
		if k.MetaLookups != lookups {
			t.Fatalf("warm gets did %d extra metadata lookups", k.MetaLookups-lookups)
		}
		// One-sided read latency, not an RPC round trip.
		if lat > 3*time.Microsecond {
			t.Fatalf("warm get = %v, want one-sided read latency", lat)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteSameSizeInPlace(t *testing.T) {
	cls, dep := testEnv(t, 2)
	s, err := Start(cls, dep, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		_ = k.Put(p, "x", []byte("v1v1"))
		if _, err := k.Get(p, "x"); err != nil {
			t.Fatal(err)
		}
		_ = k.Put(p, "x", []byte("v2v2"))
		v, err := k.Get(p, "x")
		if err != nil || string(v) != "v2v2" {
			t.Fatalf("after same-size overwrite: %q, %v", v, err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteDifferentSizeInvalidatesHandles(t *testing.T) {
	cls, dep := testEnv(t, 3)
	s, err := Start(cls, dep, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	var cond simtime.Cond
	bump := func(p *simtime.Proc) { step++; cond.Broadcast(p.Env()) }
	wait := func(p *simtime.Proc, n int) {
		for step < n {
			cond.Wait(p)
		}
	}
	cls.GoOn(1, "writer", func(p *simtime.Proc) {
		k := s.NewClient(1)
		_ = k.Put(p, "y", []byte("short"))
		bump(p)
		wait(p, 2)
		// Different size: reallocates the LMR; the reader's cached
		// handle is invalidated by LT_free.
		_ = k.Put(p, "y", []byte("a considerably longer value"))
		bump(p)
	})
	cls.GoOn(2, "reader", func(p *simtime.Proc) {
		k := s.NewClient(2)
		wait(p, 1)
		v, err := k.Get(p, "y")
		if err != nil || string(v) != "short" {
			t.Fatalf("first get: %q, %v", v, err)
		}
		bump(p)
		wait(p, 3)
		v, err = k.Get(p, "y")
		if err != nil || string(v) != "a considerably longer value" {
			t.Fatalf("get after resize: %q, %v", v, err)
		}
		if k.MetaLookups < 2 {
			t.Fatal("reader never re-resolved after the resize")
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitioningAcrossServers(t *testing.T) {
	cls, dep := testEnv(t, 4)
	s, err := Start(cls, dep, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(3, "client", func(p *simtime.Proc) {
		k := s.NewClient(3)
		vals := make(map[string][]byte)
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("key-%03d", i)
			v := bytes.Repeat([]byte{byte(i)}, i+1)
			vals[key] = v
			if err := k.Put(p, key, v); err != nil {
				t.Fatal(err)
			}
		}
		for key, want := range vals {
			v, err := k.Get(p, key)
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("get %s: %v, %v", key, v, err)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	// The hash must actually spread keys over all three servers.
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		seen[s.serverFor(fmt.Sprintf("key-%03d", i))] = true
	}
	if len(seen) != 3 {
		t.Fatalf("keys landed on %d servers, want 3", len(seen))
	}
}

func TestFacebookWorkloadMix(t *testing.T) {
	// A get-heavy Facebook-style mix: 95% gets, 5% puts.
	cls, dep := testEnv(t, 3)
	s, err := Start(cls, dep, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	kv := workload.NewFacebookKV(5)
	cls.GoOn(2, "client", func(p *simtime.Proc) {
		k := s.NewClient(2)
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = fmt.Sprintf("fb-%d", i)
			sz := kv.ValueSize()
			if sz > 32<<10 {
				sz = 32 << 10
			}
			if err := k.Put(p, keys[i], make([]byte, sz)); err != nil {
				t.Fatal(err)
			}
		}
		rng := uint64(99)
		for i := 0; i < 400; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			key := keys[rng%uint64(len(keys))]
			if rng%100 < 5 {
				sz := kv.ValueSize()
				if sz > 32<<10 {
					sz = 32 << 10
				}
				if err := k.Put(p, key, make([]byte, sz)); err != nil {
					t.Fatal(err)
				}
			} else if _, err := k.Get(p, key); err != nil {
				t.Fatal(err)
			}
		}
		if k.OneSidedGets < 300 {
			t.Fatalf("only %d one-sided gets; the data path should dominate", k.OneSidedGets)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// A size-changing Put allocates a fresh LMR. The store's other thread
// must never serve that LMR before the value is in it: every GetRPC
// racing the Puts returns one of the written values whole.
func TestPutWritesBeforeItPublishes(t *testing.T) {
	cls, dep := testEnv(t, 3)
	s, err := Start(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cls.GoOn(1, "writer", func(p *simtime.Proc) {
		defer func() { done = true }()
		k := s.NewClient(1)
		for i := 1; i <= 60; i++ {
			// Alternating sizes: every Put after the first replaces the LMR.
			if err := k.Put(p, "k", bytes.Repeat([]byte{byte(i)}, 64+64*(i%2))); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	cls.GoOn(2, "reader", func(p *simtime.Proc) {
		k := s.NewClient(2)
		reads := 0
		for !done {
			v, err := k.GetRPC(p, "k")
			if err != nil {
				continue // not yet put, or caught between two LMRs
			}
			reads++
			if (len(v) != 64 && len(v) != 128) || v[0] == 0 || !bytes.Equal(v, bytes.Repeat(v[:1], len(v))) {
				t.Errorf("GetRPC returned %d bytes starting %x: not a value any Put wrote", len(v), v[:8])
				return
			}
		}
		if reads < 60 {
			t.Errorf("only %d reads raced the puts", reads)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
