package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

func faultyEnv(t *testing.T, n int) (*cluster.Cluster, *lite.Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

// When a server node dies, its shard's keys remap deterministically to
// the survivors. The data it held is lost — a re-put recreates each key
// on its new home, after which gets work again. When the node restarts
// (with an empty index) and rejoins, the keys route back to it and
// behave like missing keys until re-put.
func TestServerCrashRemapsShardAndRejoins(t *testing.T) {
	cls, dep := faultyEnv(t, 4)
	s, err := Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(3, "client", func(p *simtime.Proc) {
		k := s.NewClient(3)
		keys := make([]string, 8)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			if err := k.Put(p, keys[i], []byte("v1-"+keys[i])); err != nil {
				t.Fatal(err)
			}
		}
		cls.CrashNode(p, 1)
		for !k.c.NodeDead(1) {
			p.Sleep(100 * time.Microsecond)
		}
		// Every key is now served by node 2; lost ones surface as
		// ErrNotFound and a re-put restores them.
		for _, key := range keys {
			if home := k.serverFor(key); home != 2 {
				t.Fatalf("serverFor(%q) = %d with node 1 dead, want 2", key, home)
			}
			v, err := k.Get(p, key)
			if err == ErrNotFound {
				if err := k.Put(p, key, []byte("v2-"+key)); err != nil {
					t.Fatalf("re-put %q: %v", key, err)
				}
				if v, err = k.Get(p, key); err != nil {
					t.Fatalf("get after re-put %q: %v", key, err)
				}
				if !bytes.Equal(v, []byte("v2-"+key)) {
					t.Fatalf("get %q = %q after re-put", key, v)
				}
			} else if err != nil {
				t.Fatalf("get %q: %v", key, err)
			} else if !bytes.Equal(v, []byte("v1-"+key)) {
				t.Fatalf("get %q = %q", key, v)
			}
		}
		cls.RestartNode(p, 1)
		deadline := p.Now() + 30*time.Millisecond
		for k.c.NodeDead(1) {
			if p.Now() > deadline {
				t.Fatal("server node never rejoined")
			}
			p.Sleep(200 * time.Microsecond)
		}
		// Keys homed on node 1 route back to it; its index is empty, so
		// they must be re-put once more, then serve normally.
		reput := 0
		for _, key := range keys {
			if k.serverFor(key) != 1 {
				continue
			}
			if _, err := k.Get(p, key); err != ErrNotFound {
				t.Fatalf("get %q from restarted empty server err = %v, want ErrNotFound", key, err)
			}
			if err := k.Put(p, key, []byte("v3-"+key)); err != nil {
				t.Fatal(err)
			}
			v, err := k.Get(p, key)
			if err != nil || !bytes.Equal(v, []byte("v3-"+key)) {
				t.Fatalf("get %q after rejoin = %q, %v", key, v, err)
			}
			reput++
		}
		if reput == 0 {
			t.Fatal("no key hashed to the restarted server; test is vacuous")
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
