package main

import (
	"fmt"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/fabric"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/verbs"
)

// Host-clock probes: each times a tight closed loop of calls into one
// layer's public entry point, so a simulator-core change shows up as
// host nanoseconds in the layer it touched. Call counts are sized to
// each probe's cost (about half a second apiece at scale 1); the
// result is CPU time per call.

type hostProbe struct {
	name  string
	calls int
	run   func(calls int) (time.Duration, error)
}

var hostProbes = []hostProbe{
	{"simtime.host_ns_per_event", 1_000_000, probeEvents},
	{"simtime.host_ns_per_wakeup", 1_000_000, probeWakeups},
	{"fabric.host_ns_per_reserve", 1_000_000, probeReserve},
	{"rnic.host_ns_per_wr", 200_000, probeWR},
	{"lite.host_ns_per_rpc", 50_000, probeRPC},
	{"kvstore.host_ns_per_get_direct", 50_000, probeGetDirect},
}

func runHostProbes(scale float64) (map[string]float64, error) {
	out := make(map[string]float64, len(hostProbes))
	for _, pr := range hostProbes {
		calls := max(int(float64(pr.calls)*scale), 1000)
		cpu, err := pr.run(calls)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pr.name, err)
		}
		out[pr.name] = float64(cpu.Nanoseconds()) / float64(calls)
	}
	return out, nil
}

// timedRun runs the environment and returns the CPU time it took;
// procErr, when non-nil, is where the probe's proc leaves its error.
func timedRun(env *simtime.Env, procErr *error) (time.Duration, error) {
	t0 := cpuTime()
	err := env.Run()
	cpu := cpuTime() - t0
	if err == nil && procErr != nil {
		err = *procErr
	}
	return cpu, err
}

// probeEvents dispatches a chain of no-op Env.At callbacks.
func probeEvents(calls int) (time.Duration, error) {
	env := simtime.NewEnv()
	n := 0
	var tick func(*simtime.Env)
	tick = func(e *simtime.Env) {
		if n++; n < calls {
			e.After(100, tick)
		}
	}
	env.After(100, tick)
	env.Go("hold", func(p *simtime.Proc) { p.Sleep(simtime.Time(calls+1) * 100) })
	return timedRun(env, nil)
}

// probeWakeups ping-pongs two procs through semaphores: every call is
// one cross-proc wakeup (a goroutine handoff).
func probeWakeups(calls int) (time.Duration, error) {
	env := simtime.NewEnv()
	ping, pong := simtime.NewSemaphore(0), simtime.NewSemaphore(0)
	env.GoDaemon("pong", func(p *simtime.Proc) {
		for {
			ping.Acquire(p)
			pong.Release(p.Env())
		}
	})
	env.Go("ping", func(p *simtime.Proc) {
		for i := 0; i < calls/2; i++ {
			ping.Release(p.Env())
			pong.Acquire(p)
		}
	})
	return timedRun(env, nil)
}

// probeReserve books 94-byte messages across the fleet's Clos fabric.
func probeReserve(calls int) (time.Duration, error) {
	cfg := params.Default()
	cfg.ClosLeafNodes, cfg.ClosSpines = fleetLeafNodes, fleetSpines
	fab := fabric.New(&cfg)
	for n := 0; n < fleetNodes; n++ {
		if err := fab.AddPort(n); err != nil {
			return 0, err
		}
	}
	t0 := cpuTime()
	for i := 0; i < calls; i++ {
		src := i % fleetNodes
		dst := (i*7 + 13) % fleetNodes
		if _, ok := fab.ReservePath(simtime.Time(i)*50, src, dst, 94); !ok {
			return 0, fmt.Errorf("path %d->%d unreachable", src, dst)
		}
	}
	return cpuTime() - t0, nil
}

// probeWR posts raw 64-byte RDMA writes through verbs and polls each
// completion.
func probeWR(calls int) (time.Duration, error) {
	cfg := params.Default()
	cls, err := cluster.New(&cfg, 2, 1<<30)
	if err != nil {
		return 0, err
	}
	a := verbs.Open(cls.Nodes[0].NIC, cls.Nodes[0].KernelAS)
	b := verbs.Open(cls.Nodes[1].NIC, cls.Nodes[1].KernelAS)
	var runErr error
	cls.GoOn(0, "poster", func(p *simtime.Proc) {
		runErr = func() error {
			pa, err := a.NIC().Mem().AllocContiguous(4096)
			if err != nil {
				return err
			}
			lmr, err := a.RegisterPhysMR(p, pa, 4096, rnic.PermRead|rnic.PermWrite)
			if err != nil {
				return err
			}
			pb, err := b.NIC().Mem().AllocContiguous(4096)
			if err != nil {
				return err
			}
			rmr, err := b.RegisterPhysMR(p, pb, 4096, rnic.PermRead|rnic.PermWrite)
			if err != nil {
				return err
			}
			qp, _ := verbs.ConnectRC(a, b)
			for i := 0; i < calls; i++ {
				wr := rnic.WR{Kind: rnic.OpWrite, WRID: uint64(i), Signaled: true, LocalMR: lmr, Len: 64, RemoteKey: rmr.Key()}
				if err := a.PostSend(p, qp, wr); err != nil {
					return err
				}
				if cqe := a.PollCQ(p, qp.SendCQ()); cqe.Status != rnic.StatusOK {
					return fmt.Errorf("write %d completed with status %v", i, cqe.Status)
				}
			}
			return nil
		}()
	})
	return timedRun(cls.Env, &runErr)
}

// probeRPC runs kernel-level 8-byte LT_RPC echoes back to back.
func probeRPC(calls int) (time.Duration, error) {
	cfg := params.Default()
	wd, err := newWorld(&cfg, 2, lite.DefaultOptions())
	if err != nil {
		return 0, err
	}
	cls, dep := wd.cls, wd.dep
	err = dep.Instance(1).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *lite.Call) []byte { return c.Input })
	if err != nil {
		return 0, err
	}
	var runErr error
	cls.GoOn(0, "caller", func(p *simtime.Proc) {
		kc := dep.Instance(0).KernelClient()
		in := make([]byte, 8)
		for i := 0; i < calls && runErr == nil; i++ {
			_, runErr = kc.RPC(p, 1, echoFn, in, 8)
		}
	})
	return timedRun(cls.Env, &runErr)
}

// probeGetDirect runs one-sided GETs of one key back to back.
func probeGetDirect(calls int) (time.Duration, error) {
	cfg := params.Default()
	wd, err := newWorld(&cfg, 2, lite.DefaultOptions())
	if err != nil {
		return 0, err
	}
	cls, dep := wd.cls, wd.dep
	st, err := kvstore.StartOneSided(cls, dep, []int{1}, 1)
	if err != nil {
		return 0, err
	}
	var runErr error
	cls.GoOn(0, "reader", func(p *simtime.Proc) {
		k := st.NewClient(0)
		if runErr = k.Put(p, "probe", kvValue(directValue, 0, 0, 0)); runErr != nil {
			return
		}
		for i := 0; i < calls && runErr == nil; i++ {
			_, runErr = k.GetDirect(p, "probe")
		}
	})
	return timedRun(cls.Env, &runErr)
}
