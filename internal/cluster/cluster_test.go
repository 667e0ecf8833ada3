package cluster

import (
	"strings"
	"testing"
	"time"

	"lite/internal/params"
	"lite/internal/simtime"
)

func TestNewBuildsAllComponents(t *testing.T) {
	cfg := params.Default()
	c, err := New(&cfg, 4, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, nd := range c.Nodes {
		if nd.ID != i || nd.Mem == nil || nd.NIC == nil || nd.OS == nil || nd.TCP == nil || nd.KernelAS == nil || nd.CPU == nil {
			t.Fatalf("node %d incompletely built: %+v", i, nd)
		}
		if nd.Mem.TotalBytes() != 1<<30 {
			t.Fatalf("node %d memory = %d", i, nd.Mem.TotalBytes())
		}
	}
	for i := range c.Nodes {
		if !c.Fab.Reachable(0, i) {
			t.Fatalf("node %d has no fabric port", i)
		}
	}
}

func TestNewRejectsZeroNodes(t *testing.T) {
	cfg := params.Default()
	if _, err := New(&cfg, 0, 1<<30); err == nil {
		t.Fatal("expected error for zero nodes")
	}
}

func TestGoOnAccountsCPUPerNode(t *testing.T) {
	cfg := params.Default()
	c := mustNew(t, &cfg, 2, 1<<30)
	c.GoOn(0, "worker", func(p *simtime.Proc) {
		p.Work(5 * time.Microsecond)
	})
	c.GoOn(1, "worker", func(p *simtime.Proc) {
		p.Work(3 * time.Microsecond)
		p.Sleep(100 * time.Microsecond) // idle, not charged
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].CPU.Busy() != 5*time.Microsecond {
		t.Fatalf("node0 cpu = %v", c.Nodes[0].CPU.Busy())
	}
	if c.Nodes[1].CPU.Busy() != 3*time.Microsecond {
		t.Fatalf("node1 cpu = %v", c.Nodes[1].CPU.Busy())
	}
	if c.TotalCPU() != 8*time.Microsecond {
		t.Fatalf("total = %v", c.TotalCPU())
	}
}

// TestCPUByKind: a proc's CPU bills its node and its kind — the name
// without an instance number. With obs on, cpu.<kind> counts what each
// kind charged from EnableObs on, for kinds created before and after
// it, and the kinds sum exactly to TotalCPU's delta.
func TestCPUByKind(t *testing.T) {
	cfg := params.Default()
	c := mustNew(t, &cfg, 2, 1<<30)
	c.GoDaemonOn(0, "serve-1", func(p *simtime.Proc) {
		p.Work(2 * time.Microsecond) // before EnableObs: node CPU only
		p.Sleep(10 * time.Microsecond)
		p.Work(3 * time.Microsecond)
	})
	c.GoOn(1, "serve-22", func(p *simtime.Proc) {
		p.Sleep(10 * time.Microsecond)
		p.Charge(4 * time.Microsecond)
	})
	var total0 simtime.Time
	c.GoOn(0, "main", func(p *simtime.Proc) {
		p.Sleep(5 * time.Microsecond)
		total0 = c.TotalCPU()
		c.EnableObs()
		c.GoOn(1, "op", func(q *simtime.Proc) { q.Work(time.Microsecond) })
		p.Sleep(20 * time.Microsecond)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.Obs.Snapshot().Counters
	want := map[string]int64{"cpu.serve": 7000, "cpu.op": 1000, "cpu.main": 0}
	var sum int64
	for name, v := range got {
		if strings.HasPrefix(name, "cpu.") {
			sum += v
			if v != want[name] {
				t.Errorf("%s = %d, want %d", name, v, want[name])
			}
		}
	}
	if delta := int64(c.TotalCPU() - total0); sum != delta || delta != 8000 {
		t.Errorf("kinds sum to %d ns, TotalCPU moved %d ns, want both 8000", sum, delta)
	}
	if c.Nodes[0].CPU.Busy() != 5*time.Microsecond {
		t.Errorf("node0 cpu = %v, want 5µs", c.Nodes[0].CPU.Busy())
	}
}

// A proc is named "n<node>/<name>" however often its name is spawned,
// on whichever node, as a daemon or not; procs of one kind share one
// account.
func TestSpawnNamesAreNodeQualified(t *testing.T) {
	cfg := params.Default()
	c := mustNew(t, &cfg, 12, 1<<30)
	var names []string
	for k := 0; k < 2; k++ {
		for _, node := range []int{0, 11} {
			for _, name := range []string{"op", "lite-serve-7"} {
				c.GoOn(node, name, func(*simtime.Proc) {})
				names = append(names, c.Nodes[node].spawnAs(name).full)
			}
		}
		c.GoDaemonOn(11, "op", func(*simtime.Proc) {})
		names = append(names, c.Nodes[11].spawnAs("op").full)
	}
	want := "n0/op n0/lite-serve-7 n11/op n11/lite-serve-7 n11/op"
	if got := strings.Join(names, " "); got != want+" "+want {
		t.Errorf("proc names %q, want %q twice", got, want)
	}
	nd := c.Nodes[11]
	if nd.spawnAs("lite-serve-7").acct != nd.spawnAs("lite-serve-8").acct || nd.spawnAs("op").acct == nd.spawnAs("lite-serve-7").acct {
		t.Error("procs of one kind do not share one account, or two kinds share one")
	}
}

func TestGoDaemonOnDoesNotBlockRun(t *testing.T) {
	cfg := params.Default()
	c := mustNew(t, &cfg, 1, 1<<30)
	c.GoDaemonOn(0, "poller", func(p *simtime.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	c.GoOn(0, "main", func(p *simtime.Proc) { p.Sleep(5 * time.Microsecond) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Env.Now() != 5*time.Microsecond {
		t.Fatalf("now = %v", c.Env.Now())
	}
}

func mustNew(t *testing.T, cfg *params.Config, n int, memPerNode int64) *Cluster {
	t.Helper()
	c, err := New(cfg, n, memPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
