package lite

import (
	"errors"
	"testing"
	"time"

	"lite/internal/load"
	"lite/internal/simtime"
)

// --- the idle-worker admission floor ---

// fairOptions is a fair-admission deployment with a budget wide enough
// that only shares and banks, never depth, decide the tests below.
func fairOptions(hw int) Options {
	opts := DefaultOptions()
	opts.AdmissionHighWater = hw
	return opts
}

// TestUnderloadedTenantsAreNeverShed: three tenants of weight 4/2/1
// offer EQUAL load that sums to ~40 % of a 4-thread server's capacity.
// The weight-proportional bank pays the weight-1 tenant 1/7 of admitted
// cost while it spends 1/3, so on credit alone it runs dry and sheds —
// with most workers parked. Arrivals are evenly paced and staggered, so
// fewer calls than workers are ever in flight: a worker is always
// parked, and nobody may be shed.
func TestUnderloadedTenantsAreNeverShed(t *testing.T) {
	const (
		srvNode = 3
		workers = 4
		service = 4 * time.Microsecond // capacity 1 req/us
		reqs    = 1000                 // per tenant
		period  = 7500 * time.Nanosecond
	)
	cls, dep := testDepOpts(t, srvNode+1, fairOptions(64))
	dom := cls.EnableObs()
	if err := dep.Instance(srvNode).ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		p.Work(service)
		return c.Input[:8]
	}); err != nil {
		t.Fatal(err)
	}
	issuers := make([]*Client, srvNode)
	nodes := make([]int, srvNode)
	scheds := make([]load.Schedule, srvNode)
	for n, w := range []int{4, 2, 1} {
		ten := uint16(n + 1)
		dep.SetTenantWeight(ten, w)
		nodes[n] = n
		issuers[n] = dep.Instance(n).TenantClient(ten)
		c := issuers[n]
		cls.GoOn(n, "warmup", func(p *simtime.Proc) {
			if _, err := c.RPCRetry(p, srvNode, echoFn, make([]byte, 16), 64); err != nil {
				t.Errorf("warmup: %v", err)
			}
		})
		// One call per tenant per period, a third of a period apart
		// (longer than a sleeping worker's wake-up, so even the first
		// round never claims all four): 0.4 req/us in all against
		// 1 req/us of capacity.
		for k := 0; k < reqs; k++ {
			scheds[n] = append(scheds[n], simtime.Time(50*time.Microsecond+time.Duration(k)*period+time.Duration(n)*period/3))
		}
	}
	res := load.RunMulti(cls, nodes, scheds, func(p *simtime.Proc, issuer, k int) load.Status {
		_, err := issuers[issuer].RPC(p, srvNode, echoFn, make([]byte, 16), 64)
		switch {
		case err == nil:
			return load.StatusOK
		case errors.Is(err, ErrOverloaded):
			return load.StatusShed
		default:
			return load.StatusError
		}
	})
	run(t, cls)
	for n, r := range res {
		if r.OK != r.Issued {
			t.Errorf("tenant %d (weight %d): %d of %d calls served, %d shed", n+1, 4>>n, r.OK, r.Issued, r.Shed)
		}
	}
	snap := dom.Snapshot()
	if n := snap.Counters["lite.rpc.shed"]; n != 0 {
		t.Errorf("lite.rpc.shed = %d at 40%% load, want 0", n)
	}
	if n := snap.Counters["lite.adm.idle_admit"]; n == 0 {
		t.Error("lite.adm.idle_admit = 0: no bank ever ran dry, the test exercises nothing")
	}
}

// holdServer serves echoFn with the given number of workers; a call
// whose input starts with 'H' holds its worker until release is
// broadcast, so a test can pin exactly as many workers busy as it
// sends such calls.
func holdServer(t *testing.T, dep *Deployment, node, workers int, release *simtime.Cond, released *bool) {
	t.Helper()
	if err := dep.Instance(node).ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		for c.Input[0] == 'H' && !*released {
			release.Wait(p)
		}
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleFloorVanishesUnderContention: the floor is for parked
// workers only. With every worker held busy, a tenant or a client node
// with an empty bank is shed as if the floor did not exist; with one
// worker parked, the very same arrivals are admitted.
func TestIdleFloorVanishesUnderContention(t *testing.T) {
	const srvNode = 2
	const held = 3 // calls pinned in handlers: two from node 0, one from node 1
	for _, tc := range []struct {
		name    string
		workers int
		tenant  bool
		shed    bool
	}{
		{"tenant/all-busy", held, true, true},
		{"tenant/one-parked", held + 1, true, false},
		{"client/all-busy", held, false, true},
		{"client/one-parked", held + 1, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// hw 4: with unit-cost calls the budget is four calls, so the
			// probe (the fourth) fits it and only share or bank can refuse.
			cls, dep := testDepOpts(t, srvNode+1, fairOptions(4))
			dom := cls.EnableObs()
			var release simtime.Cond
			released := false
			holdServer(t, dep, srvNode, tc.workers, &release, &released)
			client := func(node int, ten uint16) *Client {
				if tc.tenant {
					return dep.Instance(node).TenantClient(ten)
				}
				return dep.Instance(node).KernelClient()
			}
			hold := func(node int, ten uint16, at time.Duration) {
				cls.GoOn(node, "holder", func(p *simtime.Proc) {
					p.SleepUntil(simtime.Time(at))
					if _, err := client(node, ten).RPC(p, srvNode, echoFn, []byte("H"), 64); err != nil {
						t.Errorf("held call from node %d: %v", node, err)
					}
				})
			}
			// A warm-up primes the service-time EWMA (cold start is
			// depth-only), then three calls pin three workers.
			cls.GoOn(0, "driver", func(p *simtime.Proc) {
				if _, err := client(0, 1).RPC(p, srvNode, echoFn, []byte("w"), 64); err != nil {
					t.Errorf("warmup: %v", err)
				}
			})
			hold(0, 1, 20*time.Microsecond)
			hold(0, 1, 30*time.Microsecond)
			hold(1, 2, 40*time.Microsecond)
			var probeErr error
			var floorBefore int64
			cls.GoOn(0, "probe", func(p *simtime.Proc) {
				p.SleepUntil(simtime.Time(80 * time.Microsecond))
				a := dep.Instance(srvNode).admFor(echoFn)
				f := dep.Instance(srvNode).funcs[echoFn]
				if f.executing != held || f.waiting != tc.workers-held {
					t.Errorf("before probe: executing %d waiting %d, want %d and %d", f.executing, f.waiting, held, tc.workers-held)
				}
				// The probe's bank (tenant 1, or client node 0) is spent.
				key := cli(0)
				if tc.tenant {
					key = admKey(1)
				}
				b := a.bankFor(key, 1)
				a.refresh(b)
				b.credit, b.rem = 0, 0
				floorBefore = a.idleAdmits
				_, probeErr = client(0, 1).RPC(p, srvNode, echoFn, []byte("p"), 64)
				released = true
				release.Broadcast(p.Env())
			})
			run(t, cls)
			a := dep.Instance(srvNode).admFor(echoFn)
			snap := dom.Snapshot()
			if n := snap.Counters["lite.adm.idle_admit"]; n != a.idleAdmits {
				t.Errorf("lite.adm.idle_admit = %d, policy counted %d floor admissions", n, a.idleAdmits)
			}
			floor := a.idleAdmits - floorBefore
			if tc.shed {
				if !errors.Is(probeErr, ErrOverloaded) {
					t.Errorf("probe with every worker busy: err = %v, want ErrOverloaded", probeErr)
				}
				if n := snap.Counters["lite.rpc.shed"]; n != 1 {
					t.Errorf("lite.rpc.shed = %d, want 1", n)
				}
				if floor != 0 {
					t.Errorf("idle floor admitted %d calls with no worker parked", floor)
				}
			} else {
				if probeErr != nil {
					t.Errorf("probe with a worker parked: %v, want admitted", probeErr)
				}
				if floor != 1 {
					t.Errorf("idle floor admitted %d calls, want exactly the probe", floor)
				}
			}
		})
	}
}

// TestWaitingCountIsConserved: rpcFunc.waiting must equal the number
// of server threads actually parked in LT_recvRPC — a leak upward
// would switch fairness off for good, a leak downward would switch the
// floor off. Checked at rest after a burst, while the burst runs
// (never more parked plus executing threads than exist), after a crash
// has thrown every thread out of its wait with an error, and after the
// restarted incarnation's pool has parked again.
func TestWaitingCountIsConserved(t *testing.T) {
	const workers = 3
	cls, dep := testDepOpts(t, 3, heartbeatOptions())
	inst := dep.Instance(2)
	if err := inst.ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		p.Work(2 * time.Microsecond)
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
	f := inst.funcs[echoFn]
	burst := func(p *simtime.Proc, node int) {
		c := dep.Instance(node).KernelClient()
		var done simtime.WaitGroup
		for k := 0; k < 40; k++ {
			done.Add(1)
			cls.GoOn(node, "call", func(q *simtime.Proc) {
				defer done.Done(q.Env())
				if _, err := c.RPCRetry(q, 2, echoFn, []byte("burst"), 64); err != nil {
					t.Errorf("burst call: %v", err)
				}
			})
		}
		done.Wait(p)
	}
	sampling := true
	cls.GoDaemonOn(2, "sampler", func(p *simtime.Proc) {
		for sampling {
			if f.waiting < 0 || f.waiting+f.executing > workers {
				t.Errorf("at %v: waiting %d + executing %d with %d threads", p.Now(), f.waiting, f.executing, workers)
				return
			}
			p.Sleep(500 * time.Nanosecond)
		}
	})
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		check := func(when string, want int) {
			if f.waiting != want || f.queue.Len() != 0 || f.executing != 0 {
				t.Errorf("%s: waiting %d queue %d executing %d, want %d parked and nothing else", when, f.waiting, f.queue.Len(), f.executing, want)
			}
		}
		burst(p, 0)
		p.Sleep(50 * time.Microsecond)
		check("after burst", workers)

		cls.CrashNode(p, 2)
		p.Sleep(100 * time.Microsecond)
		check("after crash (every RecvRPC returned an error)", 0)

		cls.RestartNode(p, 2)
		p.Sleep(100 * time.Microsecond)
		check("after restart", workers)
		for dep.Instance(0).NodeDead(2) {
			p.Sleep(200 * time.Microsecond)
		}
		burst(p, 0)
		p.Sleep(50 * time.Microsecond)
		check("after burst on the new incarnation", workers)
		sampling = false
	})
	run(t, cls)
}
