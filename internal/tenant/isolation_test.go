package tenant

import (
	"errors"
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/params"
	"lite/internal/simtime"
)

// runIsolation drives four tenants (victim w2, two background w1, one
// potentially-greedy w1) against a shared fair-admission RPC server at
// ~2x capacity and returns the victim's result plus the greedy
// tenant's shed count. greedyFactor 1 is the baseline; 5 is the
// misbehaving run. Both runs keep the victim's and background
// tenants' absolute offered rates identical, so any victim movement
// is the greedy tenant's doing.
func runIsolation(t *testing.T, greedyFactor float64) (victim *load.Result, greedySheds int64) {
	res := runIsolationAll(t, greedyFactor)
	return res[0], res[3].Shed
}

func runIsolationAll(t *testing.T, greedyFactor float64) []*load.Result {
	t.Helper()
	// The handler is deliberately slow relative to per-message wire and
	// ring costs so the worker pool — the resource admission arbitrates
	// — is the bottleneck. With fast handlers the greedy tenant's extra
	// messages congest the shared recv ring *before* the admission
	// check can bounce them, which is a NIC-level head-of-line problem
	// admission control cannot fix.
	const (
		tenants = 4
		srvNode = 2
		service = 10 * time.Microsecond
		workers = 2
		baseU   = 0.08 // offered rate per weight unit, calls/us
	)
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 3, 1<<30)
	opts := lite.DefaultOptions()
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	// Keep the high-water mark tight: the admission budget bounds the
	// worst-case queue behind the workers, and with both runs saturating
	// it the victim's tail is set by the budget, not by how hard the
	// greedy tenant pushes.
	opts.AdmissionHighWater = 16
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	weights := []int{2, 1, 1, 1} // victim, bg, bg, greedy
	names := []string{"victim", "bg-0", "bg-1", "greedy"}
	clients := make([]*lite.Client, tenants)
	issueNodes := []int{0, 1, 0, 1}
	for i := range names {
		if _, err := reg.Register(names[i], Secret(names[i]), weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	reg.Attach(dep)
	for i := range names {
		ten, err := reg.Auth(names[i], Secret(names[i]))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = dep.Instance(issueNodes[i]).TenantClient(ten.ID)
	}
	const fn = lite.FirstUserFunc
	if err := dep.Instance(srvNode).ServeRPC(fn, workers, func(p *simtime.Proc, c *lite.Call) []byte {
		p.Work(service)
		return c.Input[:8]
	}); err != nil {
		t.Fatal(err)
	}
	// Warm bindings and prime the service-time EWMA before the
	// schedule opens.
	for i := range clients {
		c := clients[i]
		node := issueNodes[i]
		cls.GoOn(node, "warmup", func(p *simtime.Proc) {
			if _, err := c.RPCRetry(p, srvNode, fn, make([]byte, 16), 64); err != nil {
				t.Errorf("warmup: %v", err)
			}
		})
	}
	// Offered load per tenant is its QoS weight x baseU, with the
	// greedy tenant scaled by its misbehavior factor. Aggregate rate
	// and request count scale together so the run covers the same
	// virtual-time window in both configurations.
	rw := []float64{2, 1, 1, greedyFactor}
	sumW := 0.0
	for _, w := range rw {
		sumW += w
	}
	rate := baseU * sumW
	reqs := int(2000 * rate) // ~2000us of schedule
	scheds := load.SplitPoissonWeighted(42, rate, reqs, simtime.Time(50*time.Microsecond), rw)
	res := load.RunMulti(cls, issueNodes, scheds, func(p *simtime.Proc, issuer, k int) load.Status {
		_, err := clients[issuer].RPC(p, srvNode, fn, make([]byte, 16), 64)
		switch {
		case err == nil:
			return load.StatusOK
		case errors.Is(err, lite.ErrOverloaded):
			return load.StatusShed
		case errors.Is(err, lite.ErrTimeout):
			return load.StatusTimeout
		default:
			return load.StatusError
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGreedyTenantCannotMoveVictimTail is the isolation property the
// weighted-credit admission regime exists for: a tenant overdriving
// its class by 5x is clamped to its weight (its excess arrivals bounce
// off an empty credit bank without consuming budget), so a
// well-behaved tenant's p99 moves by at most 20%.
func TestGreedyTenantCannotMoveVictimTail(t *testing.T) {
	base, baseSheds := runIsolation(t, 1)
	loaded, greedySheds := runIsolation(t, 5)
	if base.OK == 0 || loaded.OK == 0 {
		t.Fatalf("no victim goodput: base OK=%d loaded OK=%d", base.OK, loaded.OK)
	}
	bp, lp := base.P99(), loaded.P99()
	if lp > bp+bp/5 {
		t.Fatalf("victim p99 moved %v -> %v (> +20%%) under a 5x greedy tenant", bp, lp)
	}
	// The clamp must be visible: the greedy run sheds far more of the
	// greedy tenant's traffic than the baseline did.
	if greedySheds <= baseSheds {
		t.Fatalf("greedy sheds %d <= baseline %d; admission never clamped it", greedySheds, baseSheds)
	}
}
