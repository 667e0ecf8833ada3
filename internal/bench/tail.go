package bench

import (
	"errors"
	"fmt"
	"time"

	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/simtime"
)

func init() {
	register("tail", "Open-loop tail latency at fixed offered load, admission control vs ablation", tail)
	register("saturate", "Saturation sweep: offered load vs achieved throughput and tail latency", saturate)
}

// tailFn is the RPC function the serving-under-load experiments bind.
const tailFn = lite.FirstUserFunc + 1

// tailService is the simulated per-call handler cost; with
// tailWorkers server threads the node saturates at
// tailWorkers/tailService requests per microsecond (1 req/us here).
const (
	tailService = 2 * time.Microsecond
	tailWorkers = 2
)

// serveTail starts the serving experiments' bounded handler pool at
// inst: tailWorkers threads, tailService of work per call.
func serveTail(inst *lite.Instance) error {
	return inst.ServeRPC(tailFn, tailWorkers, func(p *simtime.Proc, c *lite.Call) []byte {
		p.Work(tailService)
		return c.Input[:8]
	})
}

// tailOpts is the deployment configuration for the serving
// experiments: a short RPC timeout and backoff so the ablation's
// collapse fits a bounded virtual-time run, with the admission
// high-water mark as the experiment variable.
func tailOpts(highWater int) lite.Options {
	opts := lite.DefaultOptions()
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	opts.AdmissionHighWater = highWater
	return opts
}

// runOpenLoop boots a 2-node cluster, starts the bounded handler pool
// on node 1, and drives it from node 0 with an n-request Poisson
// schedule at ratePerUs. Returns the load result once the cluster
// drains.
func runOpenLoop(seed uint64, ratePerUs float64, n, highWater int) (*load.Result, error) {
	cls, dep, err := newLITEOpts(2, tailOpts(highWater))
	if err != nil {
		return nil, err
	}
	if err := serveTail(dep.Instance(1)); err != nil {
		return nil, err
	}
	// Warm the binding before the schedule opens so ring negotiation is
	// not measured as the first requests' latency.
	cls.GoOn(0, "warmup", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		_, _ = c.RPCRetry(p, 1, tailFn, make([]byte, 16), 64)
	})
	// Requests are issued without the retry wrapper: the harness
	// measures what the server does to a fixed offered load, and a
	// shed must show up as a shed, not as a retried-and-eventually-
	// served success whose latency is mostly client backoff.
	client := dep.Instance(0).KernelClient()
	sched := load.Poisson(seed, ratePerUs, n, 50*time.Microsecond)
	res := load.Run(cls, 0, sched, func(p *simtime.Proc, k int) load.Status {
		_, err := client.RPC(p, 1, tailFn, make([]byte, 16), 64)
		return statusOf(err)
	})
	if err := cls.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// tail measures the latency distribution an open-loop client sees at a
// light load and at 2x saturation, with and without admission control.
// Past the knee the admission-controlled server sheds the excess with
// a fast typed error and keeps the survivors' tail bounded by the
// queue cap; the ablation lets the queue grow without bound, so calls
// age into the RPC timeout — late enough that the server has already
// burned service time on requests whose clients gave up.
func tail() (*Table, error) {
	t := &Table{
		ID:     "tail",
		Title:  "Open-loop tail latency, 2 workers x 2us service (capacity 1 req/us)",
		Header: []string{"Offered (req/us)", "Admission", "OK", "Shed", "Timeout", "p50 (us)", "p99 (us)", "p999 (us)"},
	}
	const n = 600
	for _, rate := range []float64{0.5, 2.0} {
		for _, hw := range []int{16, 0} {
			res, err := runOpenLoop(42, rate, n, hw)
			if err != nil {
				return nil, err
			}
			adm := "off"
			if hw > 0 {
				adm = fmt.Sprintf("hw=%d", hw)
			}
			t.AddRow(fmt.Sprintf("%.1f", rate), adm,
				fmt.Sprintf("%d", res.OK), fmt.Sprintf("%d", res.Shed), fmt.Sprintf("%d", res.Timeout),
				us(res.P50()), us(res.P99()), us(res.P999()))
		}
	}
	t.Note("latency is measured from the scheduled arrival (open loop), so server queueing is not hidden by coordinated omission")
	t.Note("past the knee: admission control sheds the excess fast and bounds p99 near queue-cap x service time; the ablation's queue grows until calls age into the RPC timeout")
	return t, nil
}

// saturate locates the saturation knee with admission control on: a
// coarse doubling ramp until the server first sheds (or the goodput
// gap opens), then a fixed number of bisection steps between the last
// clean rate and the first overloaded one. Every probe reruns the same
// seed, so the bracketing — and the whole table — is deterministic.
func saturate() (*Table, error) {
	t := &Table{
		ID:     "saturate",
		Title:  "Saturation knee auto-bisection, admission hw=16 (capacity 1 req/us)",
		Header: []string{"Phase", "Offered (req/us)", "Achieved (req/us)", "OK", "Shed", "Timeout", "p50 (us)", "p99 (us)", "p999 (us)"},
	}
	const n = 300
	overloaded := func(rate float64, res *load.Result) bool {
		return res.Shed > 0 || res.AchievedPerUs() < 0.95*rate
	}
	probe := func(phase string, rate float64) (*load.Result, error) {
		res, err := runOpenLoop(7, rate, n, 16)
		if err != nil {
			return nil, err
		}
		t.AddRow(phase, fmt.Sprintf("%.3f", rate), fmt.Sprintf("%.2f", res.AchievedPerUs()),
			fmt.Sprintf("%d", res.OK), fmt.Sprintf("%d", res.Shed), fmt.Sprintf("%d", res.Timeout),
			us(res.P50()), us(res.P99()), us(res.P999()))
		return res, nil
	}
	lo, hi := 0.0, 0.0
	for rate := 0.2; rate <= 3.2; rate *= 2 {
		res, err := probe("ramp", rate)
		if err != nil {
			return nil, err
		}
		if overloaded(rate, res) {
			hi = rate
			break
		}
		lo = rate
	}
	if hi == 0 {
		t.Note("no knee found: the server kept up through 3.2 req/us offered")
		return t, nil
	}
	for i := 0; i < 5; i++ {
		mid := (lo + hi) / 2
		res, err := probe("bisect", mid)
		if err != nil {
			return nil, err
		}
		if overloaded(mid, res) {
			hi = mid
		} else {
			lo = mid
		}
	}
	t.Note("knee bisected to [%.3f, %.3f] req/us offered (first shed or >5%% goodput gap)", lo, hi)
	return t, nil
}

// statusOf classifies one raw (unretried) request's outcome for the
// load harness: a shed and a timeout are outcomes of their own, any
// other error is a failure.
func statusOf(err error) load.Status {
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
}
