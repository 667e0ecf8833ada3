package lite

import (
	"strings"
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestCPUKindsSumToTotal: with obs switched on mid-run, the cpu.<kind>
// counters split exactly the CPU that Cluster.TotalCPU gained since —
// callers, pollers, server threads and the rest, nothing lost or
// counted twice.
func TestCPUKindsSumToTotal(t *testing.T) {
	const srv = 2
	cls, dep := testDep(t, 3)
	if err := dep.Instance(srv).ServeRPC(echoFn, 2, func(p *simtime.Proc, c *Call) []byte {
		p.Work(time.Microsecond)
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < srv; node++ {
		c := dep.Instance(node).UserClient()
		cls.GoOn(node, "op", func(p *simtime.Proc) {
			for k := 0; k < 50; k++ {
				if _, err := c.RPC(p, srv, echoFn, []byte("ping"), 64); err != nil {
					t.Errorf("rpc: %v", err)
					return
				}
				p.Sleep(time.Duration(3+node) * time.Microsecond)
			}
		})
	}
	var total0 simtime.Time
	cls.GoOn(0, "obs", func(p *simtime.Proc) {
		p.Sleep(100 * time.Microsecond)
		total0 = cls.TotalCPU()
		cls.EnableObs()
	})
	run(t, cls)
	var sum int64
	kinds := map[string]int64{}
	for name, v := range cls.Obs.Snapshot().Counters {
		if kind, ok := strings.CutPrefix(name, "cpu."); ok {
			sum += v
			kinds[kind] = v
		}
	}
	if delta := int64(cls.TotalCPU() - total0); sum != delta {
		t.Errorf("cpu.* counters sum to %d ns, TotalCPU moved %d ns: %v", sum, delta, kinds)
	}
	for _, kind := range []string{"op", "lite-poller", "lite-serve"} {
		if kinds[kind] <= 0 {
			t.Errorf("cpu.%s = %d, want the kind's CPU: %v", kind, kinds[kind], kinds)
		}
	}
}
