package kvstore

import (
	"errors"
	"fmt"
	"testing"

	"lite/internal/lite"
	"lite/internal/simtime"
)

// TestDrainShardScaleOut live-migrates a shard onto a node that never
// served before, with a client mutating throughout. No operation may
// fail; after the migration the values must be intact AND physically
// re-homed — crashing the old server must not lose a byte.
func TestDrainShardScaleOut(t *testing.T) {
	cls, dep := testEnv(t, 5)
	s, err := Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 40
	key := func(k int) string { return fmt.Sprintf("key-%03d", k) }
	val := func(k, gen int) []byte { return []byte(fmt.Sprintf("value-%03d-gen%d", k, gen)) }

	mutationsDone := false
	cls.GoOn(4, "client", func(p *simtime.Proc) {
		k := s.NewClient(4)
		for i := 0; i < nkeys; i++ {
			if err := k.Put(p, key(i), val(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		// Keep mutating across the whole migration window.
		for gen := 1; gen <= 8; gen++ {
			for i := 0; i < nkeys; i++ {
				if err := k.Put(p, key(i), val(i, gen)); err != nil {
					t.Fatalf("put %d gen %d: %v", i, gen, err)
				}
				got, err := k.Get(p, key(i))
				if err != nil || string(got) != string(val(i, gen)) {
					t.Fatalf("get %d gen %d = %q, %v", i, gen, got, err)
				}
			}
			p.Sleep(50 * 1000)
		}
		mutationsDone = true
	})
	cls.GoOn(1, "rebalance", func(p *simtime.Proc) {
		p.SleepUntil(200 * 1000)
		if err := s.DrainShard(p, 1, 3); err != nil {
			t.Errorf("DrainShard: %v", err)
		}
		for _, n := range s.servers {
			if n == 1 {
				t.Error("routing still names the drained node")
			}
		}
		if s.isServer[1] || !s.isServer[3] {
			t.Error("server marks not re-pointed after drain")
		}
	})
	// The values now live on the target: killing the old home loses
	// nothing. (Runs on node 0 — a proc on the crashed node would halt
	// with it.)
	cls.GoOn(0, "crash-verify", func(p *simtime.Proc) {
		p.SleepUntil(10 * 1000 * 1000)
		if !mutationsDone {
			t.Fatal("mutation loop still running at verification time")
		}
		cls.CrashNode(p, 1)
		k := s.NewClient(0)
		for i := 0; i < nkeys; i++ {
			got, err := k.Get(p, key(i))
			if err != nil || string(got) != string(val(i, 8)) {
				t.Errorf("post-crash get %d = %q, %v", i, got, err)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainShardMergeIntoPeer drains a shard onto a node already
// serving another shard of the same store: the indexes merge and both
// shards keep serving.
func TestDrainShardMergeIntoPeer(t *testing.T) {
	cls, dep := testEnv(t, 4)
	s, err := Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 30
	drained := false
	cls.GoOn(1, "rebalance", func(p *simtime.Proc) {
		p.SleepUntil(300 * 1000)
		if err := s.DrainShard(p, 1, 2); err != nil {
			t.Errorf("DrainShard onto peer: %v", err)
		}
		drained = true
	})
	cls.GoOn(3, "client", func(p *simtime.Proc) {
		k := s.NewClient(3)
		for i := 0; i < nkeys; i++ {
			if err := k.Put(p, fmt.Sprintf("m%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		p.SleepUntil(600 * 1000)
		if !drained {
			t.Fatal("drain did not finish before the verification pass")
		}
		for i := 0; i < nkeys; i++ {
			got, err := k.Get(p, fmt.Sprintf("m%d", i))
			if err != nil || string(got) != fmt.Sprintf("v%d", i) {
				t.Fatalf("get after merge = %q, %v", got, err)
			}
			if err := k.Put(p, fmt.Sprintf("m%d", i), []byte("updated")); err != nil {
				t.Fatalf("put after merge: %v", err)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainShardIntoVacatedHomeRefused drains shard 1 to node 3 and
// then shard 2 into node 1. Both shards share the store's function id,
// so node 1 still bounces that id's stale callers to node 3; the second
// move would hand them to node 2's shard. The manager refuses it at
// prepare with ErrMoved, before anything is fenced or handed over, and
// both shards keep serving where they are.
func TestDrainShardIntoVacatedHomeRefused(t *testing.T) {
	cls, dep := testEnv(t, 5)
	cls.EnableObs()
	s, err := Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 30
	key := func(k int) string { return fmt.Sprintf("vac-%03d", k) }
	cls.GoOn(4, "client", func(p *simtime.Proc) {
		k := s.NewClient(4)
		for i := 0; i < nkeys; i++ {
			if err := k.Put(p, key(i), []byte("before")); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := s.DrainShard(p, 1, 3); err != nil {
			t.Fatalf("DrainShard 1->3: %v", err)
		}
		prepared := cls.Obs.Total("lite.migrate.prepared")
		if prepared != 1 {
			t.Fatalf("lite.migrate.prepared = %d after one drain, want 1", prepared)
		}
		if err := s.DrainShard(p, 2, 1); !errors.Is(err, lite.ErrMoved) {
			t.Fatalf("DrainShard 2->1 = %v, want ErrMoved", err)
		}
		if n := cls.Obs.Total("lite.migrate.prepared") - prepared; n != 0 {
			t.Errorf("the refused drain prepared %d handoffs", n)
		}
		if got := fmt.Sprint(s.ServerNodes()); got != "[2 3]" {
			t.Errorf("servers after the refused drain = %s, want [2 3]", got)
		}
		for i := 0; i < nkeys; i++ {
			if err := k.Put(p, key(i), []byte("after")); err != nil {
				t.Fatalf("put %d after the refused drain: %v", i, err)
			}
			if got, err := k.Get(p, key(i)); err != nil || string(got) != "after" {
				t.Fatalf("get %d after the refused drain = %q, %v", i, got, err)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
