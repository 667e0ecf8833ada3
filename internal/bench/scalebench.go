// The scale experiment makes the simulator itself the system under
// test: a 500-node two-tier Clos cluster running a kvstore + tenants
// mix over a hub mesh, executed twice on the identical workload. The
// two runs must agree bit for bit on the virtual timeline; the table
// reports host bring-up/run wall time, CPU time, and end-to-end events
// per CPU second for each, and the faster run's events per CPU second
// is the figure bench-guard holds within its band.
//
// This file measures the simulator's own host-time throughput (events
// per CPU second): the host clocks are the measurement here, never an
// input to virtual-time behavior, hence the lint waiver.
//
//simlint:allow-wallclock wall time is the measurement, not an input
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/tenant"
)

func init() {
	register("scale", scaleTitle, runScale)
}

const scaleTitle = "500-node Clos cluster: kvstore+tenants mix, simulator events per CPU second"

const (
	scaleNodes     = 500
	scaleLeafNodes = 25 // 20 leaves of 25 hosts
	scaleSpines    = 5  // uplinks at host link rate -> 5x oversubscribed leaves
	scaleServers   = 8  // kvstore servers on nodes 1..8, manager on 0
	scaleThreads   = 4  // RPC threads per server node
	scaleOps       = 48 // closed-loop ops per client node
	// The floors that keep this a scale run. They are stated in what the
	// experiment asks of the simulator — nodes and client ops — not in
	// events: a stack that does the same ops in fewer events has got
	// cheaper, not smaller.
	scaleMinNodes = 500
	scaleMinOps   = 20_000
)

// scaleOutcome is one run of the workload. boot is the host wall time
// to stand the cluster up (node construction, the QP mesh, control
// rings, kvstore); run is the host wall time to simulate the workload
// to completion; cpu is the process CPU time the whole thing consumed.
// Events per second is end-to-end: bring-up is part of what an
// experiment costs.
type scaleOutcome struct {
	events  int64
	virtual simtime.Time
	boot    time.Duration
	run     time.Duration
	cpu     time.Duration
	nodes   int
	ops     int64
	sheds   int64
	errs    int64
}

// eventsPerSec is throughput against CPU time, not wall time. The
// simulator is single-threaded, so CPU seconds measure the work an
// experiment costs; unlike wall time they do not inflate while the
// process sits descheduled behind a noisy host neighbor, which on
// shared machines is the difference between a reproducible figure and
// a coin flip. Wall times are still reported per phase for context.
func (o *scaleOutcome) eventsPerSec() float64 {
	if o.cpu <= 0 {
		return 0
	}
	return float64(o.events) / o.cpu.Seconds()
}

// cpuTime returns the CPU time (user + system) consumed by the process
// so far. Deltas around a measured region are immune to host
// descheduling in a way wall-clock deltas are not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scaleWorkload builds the 500-node cluster and drives the mix to
// completion. Everything inside is seeded and virtual, so two calls
// must produce the same events, virtual duration, op count, and error
// count.
func scaleWorkload() (*scaleOutcome, error) {
	// Collect the previous run's garbage now so no run pays another
	// run's GC debt inside its measured window. (The clusters are
	// deliberately not track()ed: each becomes collectable as soon as
	// its outcome is extracted.)
	runtime.GC()
	cpuStart := cpuTime()
	bootStart := time.Now()
	cfg := params.Default()
	cfg.ClosLeafNodes = scaleLeafNodes
	cfg.ClosSpines = scaleSpines
	cls, err := cluster.New(&cfg, scaleNodes, 4<<30)
	if err != nil {
		return nil, err
	}
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 1
	// Hub mesh: every node brings up QPs and control rings to the
	// manager and the kvstore servers only.
	opts.MeshPeers = func(a, b int) bool { return a <= scaleServers || b <= scaleServers }
	opts.AdmissionHighWater = 64
	opts.FairAdmission = true
	dep, err := lite.Start(cls, opts)
	if err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry()
	var classes [3]*tenant.Tenant
	for i, c := range []struct {
		name   string
		weight int
	}{{"gold", 4}, {"silver", 2}, {"bronze", 1}} {
		t, err := reg.Register(c.name, "secret", c.weight)
		if err != nil {
			return nil, err
		}
		classes[i] = t
	}
	reg.Attach(dep)
	servers := make([]int, scaleServers)
	for i := range servers {
		servers[i] = i + 1
	}
	st, err := kvstore.Start(cls, dep, servers, scaleThreads)
	if err != nil {
		return nil, err
	}
	out := &scaleOutcome{nodes: len(cls.Nodes)}
	val := []byte("0123456789abcdef0123456789abcdef")
	for node := scaleServers + 1; node < scaleNodes; node++ {
		node := node
		// Every third client issues through a tenant service class
		// (weighted fair admission + namespaced keys); the rest are
		// plain kvstore clients.
		var kc *kvstore.Client
		if node%3 == 0 {
			kc = st.NewTenantClient(node, classes[(node/3)%3].ID)
		} else {
			kc = st.NewClient(node)
		}
		cls.GoOn(node, "scale-client", func(p *simtime.Proc) {
			rng := xorshift(uint64(node)*0x9e3779b97f4a7c15 + 1)
			for k := 0; k < scaleOps; k++ {
				key := fmt.Sprintf("k%d", rng.next()%4096)
				put := rng.next()%3 == 0
				var err error
				for attempt := 0; ; attempt++ {
					if put {
						err = kc.Put(p, key, val)
					} else if _, err = kc.Get(p, key); errors.Is(err, kvstore.ErrNotFound) {
						err = nil // a miss is a served lookup
					}
					// An overload shed is a definitive "not executed"
					// with a Retry-After hint; the well-behaved client
					// backs off by the hint and resubmits.
					var ov *lite.OverloadError
					if !errors.As(err, &ov) || attempt >= 50 {
						break
					}
					out.sheds++
					wait := ov.RetryAfter
					if wait <= 0 {
						wait = simtime.Time(time.Microsecond)
					}
					p.Sleep(wait)
				}
				out.ops++
				if err != nil {
					out.errs++
				}
			}
		})
	}
	out.boot = time.Since(bootStart)
	start := time.Now()
	runErr := cls.Env.Run()
	out.run = time.Since(start)
	out.cpu = cpuTime() - cpuStart
	out.events = cls.Env.Events()
	out.virtual = cls.Env.Now()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// runScale executes the workload twice and gates: the two runs must
// agree bit for bit on the virtual timeline, no client op may fail, and
// the run must be at scale (scaleMinNodes, scaleMinOps). Each gate is an
// experiment error, so bench-guard fails loudly on a determinism
// regression; the recorded events per CPU second is the faster run's
// (wall jitter on a shared host dwarfs a three-second total).
func runScale() (*Table, error) {
	first, err := scaleWorkload()
	if err != nil {
		return nil, fmt.Errorf("scale: run 1: %w", err)
	}
	second, err := scaleWorkload()
	if err != nil {
		return nil, fmt.Errorf("scale: run 2: %w", err)
	}
	tab := &Table{
		ID:     "scale",
		Title:  scaleTitle,
		Header: []string{"run", "events", "virtual_ms", "ops", "errs", "boot_ms", "run_ms", "cpu_ms", "events_per_sec"},
	}
	for i, o := range []*scaleOutcome{first, second} {
		tab.AddRow(fmt.Sprintf("run-%d", i+1),
			fmt.Sprintf("%d", o.events),
			fmt.Sprintf("%.3f", float64(o.virtual)/1e6),
			fmt.Sprintf("%d", o.ops),
			fmt.Sprintf("%d", o.errs),
			fmt.Sprintf("%.0f", float64(o.boot.Nanoseconds())/1e6),
			fmt.Sprintf("%.0f", float64(o.run.Nanoseconds())/1e6),
			fmt.Sprintf("%.0f", float64(o.cpu.Nanoseconds())/1e6),
			fmt.Sprintf("%.0f", o.eventsPerSec()),
		)
	}
	tab.Events = first.events
	tab.Virtual = first.virtual
	tab.EventsPerSec = max(first.eventsPerSec(), second.eventsPerSec())
	cfg := params.Default()
	cfg.ClosLeafNodes = scaleLeafNodes
	cfg.ClosSpines = scaleSpines
	tab.Note("topology: %d nodes over %d leaves x %d spines, %.1fx oversubscribed; hub mesh to manager+%d servers",
		scaleNodes, scaleNodes/scaleLeafNodes, scaleSpines, cfg.ClosOversubscription(), scaleServers)
	tab.Note("wall and CPU columns are host-dependent; virtual columns must match exactly")
	// Gate failures return the table too, so the failing numbers are
	// visible in the report next to the error.
	if first.events != second.events || first.virtual != second.virtual ||
		first.ops != second.ops || first.errs != second.errs {
		return tab, errors.New("scale: the two runs diverge on the virtual columns")
	}
	if first.errs != 0 {
		return tab, fmt.Errorf("scale: %d of %d client ops failed", first.errs, first.ops)
	}
	if first.nodes < scaleMinNodes || first.ops < scaleMinOps {
		return tab, fmt.Errorf("scale: %d ops on %d nodes, want >= %d on >= %d", first.ops, first.nodes, scaleMinOps, scaleMinNodes)
	}
	return tab, nil
}
