package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"lite/internal/detrand"
	"lite/internal/load"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// phase is one open-loop segment at a fixed offered rate: Poisson
// arrivals, every op forked at its scheduled instant whatever the
// earlier ones are doing, drained to zero in flight before it ends.
type phase struct {
	name string
	rate float64 // offered, ops/us
	ops  []op
	at   []simtime.Time
	// lat[k] is op k's completion minus its *scheduled* arrival in
	// virtual ns (failedLat for an op that failed), in arrival order.
	lat    []int64
	failed int // shed, timed out, errored
	wrong  int // completed with a reply that failed verification
	// inflightAtLast is how many ops were still outstanding when the
	// last one arrived: the growing-backlog signal.
	inflightAtLast int
	lateMax        simtime.Time // worst generator lateness
	start, end     simtime.Time // first arrival to drained
	vcpu           simtime.Time // Cluster.TotalCPU over [start, end]
	events         int64        // simulator events over [start, end]
	// hostCPU is the host CPU time the phase cost, estimated robustly:
	// the phase is cut into cpuChunks runs of consecutive arrivals, each
	// timed with getrusage, and every chunk is charged the median
	// chunk's cost. A GC cycle or a noisy neighbour inflates a chunk or
	// two, not the figure.
	hostCPU time.Duration
}

const cpuChunks = 14

func (ph *phase) completed() int { return len(ph.lat) - ph.failed - ph.wrong }

// stage says how far a run goes.
type stage int

const (
	stageSetup stage = iota // build, preload, warm, stop
	stageBase               // ... plus the base phase
	stageAll                // ... plus hi and the ladder
)

type options struct {
	scale  float64 // op-count factor (seconds / runSeconds)
	upTo   stage
	traced bool // EnableObs + tracing over the base phase
	// baseCut, when positive, stops base arrivals after that many ops
	// (the schedule is still drawn at full length, so the ops that do
	// run are exactly the full run's first ones).
	baseCut int
}

// runData is everything one cluster's run produced.
type runData struct {
	w        workload
	setupSec float64 // build + preload + warm-up + GC, host monotonic
	base, hi *phase
	ladder   []*phase      // in the order run: coarse rungs, then fine
	verdicts []rungVerdict // ladder[i] judged against the limit
	rssMB    float64       // resident-set high-water mark when hi drained
	dom      *obs.Domain   // traced runs only
	probes0  probeSample   // traced runs: probes at base open and drain
	probes1  probeSample
}

const (
	// phaseGap is the idle time before a phase's first arrival. "Drained
	// to zero in flight" is not quiescent: after an overloaded rung the
	// stack is still returning ring credit and restocking receives, and
	// a rung started 10 us later measured that, not its own rate
	// (rpc-small at 5.06 ops/us: p99 51 us, against 7.4 us after 2 ms).
	phaseGap = 2 * simtime.Time(time.Millisecond)
	planSalt = 0x5bd1e9955bd1e995
)

type runner struct {
	d        *runData
	seed     uint64
	tracing  bool
	inflight int
	// atFirstArrival, when set, runs once at the next phase's first
	// arrival.
	atFirstArrival func()
}

// runOnce builds sp's cluster from a private copy of cfg, sets it up
// and drives it as far as opt.upTo says.
func runOnce(sp *spec, cfg params.Config, seed uint64, opt options) (*runData, error) {
	t0 := time.Now()
	w, err := sp.build(&cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	d := &runData{w: w}
	r := &runner{d: d, seed: seed}
	cls := w.shared().cls
	var runErr error
	cls.Env.Go("bench", func(p *simtime.Proc) {
		if runErr = w.setup(p); runErr != nil {
			return
		}
		n := sp.ops(sp.warmOps, opt.scale)
		warm := r.phase(p, "warm", sp.rateBase, n, n, 1)
		if bad := warm.failed + warm.wrong; bad > 0 {
			runErr = fmt.Errorf("%s: %d of %d warm-up ops failed", sp.name, bad, n)
			return
		}
		runtime.GC()
		d.setupSec = time.Since(t0).Seconds()
		if opt.upTo == stageSetup {
			return
		}
		if opt.traced {
			// Obs goes on at base's first arrival, so every counter and
			// span covers exactly the traced window.
			r.atFirstArrival = func() {
				d.dom = cls.EnableObs()
				d.dom.EnableTracing()
				r.tracing = true
				d.probes0 = sampleProbes(w.shared())
			}
		}
		n = sp.ops(sp.baseOps, opt.scale)
		cut := n
		if opt.baseCut > 0 && opt.baseCut < n {
			cut = opt.baseCut
		}
		d.base = r.phase(p, "base", sp.rateBase, n, cut, 2)
		if opt.traced {
			d.probes1 = sampleProbes(w.shared())
			r.tracing = false
		}
		if opt.upTo == stageAll {
			d.hi = r.phase(p, "hi", sp.rateHi, n, n, 3)
			// Host-clock metrics cover base and hi only: fixed ops at fixed
			// rates. How many rungs run, and how deep the failing one's
			// overload goes, follows the modelled capacity, and a
			// virtual-clock change must not move a host-clock metric.
			d.rssMB = peakRSSMB()
			n = sp.ops(sp.rungOps, opt.scale)
			// Climb the coarse rungs to the first one that fails, then the
			// fine rungs inside that last step. Rungs past a failing one
			// say nothing more about where the limit is crossed, and an
			// ever deeper overload is the most expensive thing to simulate.
			rung := func(j int) bool {
				rate := sp.rung0 * math.Pow(ladderStep, float64(j)/ladderFine)
				ph := r.phase(p, fmt.Sprintf("r%d.%d", j/ladderFine, j%ladderFine), rate, n, n, uint64(10+j))
				v := judge(ph, sp.limitNs)
				d.ladder, d.verdicts = append(d.ladder, ph), append(d.verdicts, v)
				return v.pass()
			}
			k := 0
			for k < ladderRungs && rung(k*ladderFine) {
				k++
			}
			if 0 < k && k < ladderRungs {
				for j := (k-1)*ladderFine + 1; j < k*ladderFine && rung(j); j++ {
				}
			}
		}
	})
	if err := cls.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	if runErr != nil {
		return nil, runErr
	}
	return d, nil
}

// phase offers n Poisson arrivals at rate (the first cut of them) and
// returns once every op has completed.
func (r *runner) phase(p *simtime.Proc, name string, rate float64, n, cut int, salt uint64) *phase {
	w := r.d.w
	wd := w.shared()
	cls := wd.cls
	seed := detrand.Mix64(r.seed + salt*0x9e3779b97f4a7c15)
	ph := &phase{
		name: name,
		rate: rate,
		at:   load.Poisson(seed, rate, n, p.Now()+phaseGap)[:cut],
		ops:  w.plan(detrand.New(seed^planSalt), n)[:cut],
		lat:  make([]int64, cut),
	}
	wd.spans = nil
	var vcpu0 simtime.Time
	var ev0 int64
	chunk := (cut + cpuChunks - 1) / cpuChunks
	var stamps []time.Duration
	var wg simtime.WaitGroup
	wg.Add(cut)
	for k, at := range ph.at {
		if at > p.Now() {
			p.SleepUntil(at)
		}
		if k == 0 {
			ph.start, vcpu0, ev0 = p.Now(), cls.TotalCPU(), cls.Env.Events()
			if r.atFirstArrival != nil {
				r.atFirstArrival()
				r.atFirstArrival = nil
			}
			if r.tracing {
				wd.spans = make([]*obs.Span, cut)
			}
		}
		if k%chunk == 0 {
			stamps = append(stamps, cpuTime())
		}
		if late := p.Now() - at; late > ph.lateMax {
			ph.lateMax = late
		}
		if k == cut-1 {
			ph.inflightAtLast = r.inflight
		}
		r.inflight++
		k, at, o := k, at, ph.ops[k]
		cls.GoOn(o.node, "op", func(q *simtime.Proc) {
			var span *obs.Span
			if r.tracing {
				// The op's root span: everything the stack records on
				// this proc (and on the echo server, which adopts it)
				// hangs underneath.
				span = cls.Obs.Node(o.node).StartSpan(at, "bench.op", nil)
				wd.spans[k] = span
				q.SetTrace(span)
			}
			st := w.issue(q, k, o)
			span.Done(q.Now())
			switch st {
			case stOK:
				ph.lat[k] = int64(q.Now() - at)
			case stWrong:
				ph.wrong++
				ph.lat[k] = failedLat
			default:
				ph.failed++
				ph.lat[k] = failedLat
			}
			r.inflight--
			wg.Done(q.Env())
		})
	}
	wg.Wait(p)
	ph.end = p.Now()
	ph.vcpu = cls.TotalCPU() - vcpu0
	ph.events = cls.Env.Events() - ev0
	var costs []float64
	for i := 1; i < len(stamps); i++ {
		costs = append(costs, float64(stamps[i]-stamps[i-1]))
	}
	if len(costs) > 0 {
		ph.hostCPU = time.Duration(median(costs) * float64(cut) / float64(chunk))
	}
	return ph
}

// rungVerdict is one ladder rung judged against the workload's limit.
type rungVerdict struct {
	rate      float64
	p99       quantile
	failShare float64
	inflight  int
	// badness is the worst of the three pass criteria, each scaled so
	// that 1 is exactly at the limit: p99 / limit, fail share / 0.001,
	// in-flight at the last arrival / (2 x rate x limit).
	badness float64
}

func (v rungVerdict) pass() bool { return v.badness <= 1 }

const maxFailShare = 0.001

func judge(ph *phase, limitNs int64) rungVerdict {
	v := rungVerdict{
		rate:      ph.rate,
		p99:       quantileOf(sortedCopy(ph.lat), 0.99),
		failShare: float64(ph.failed+ph.wrong) / float64(len(ph.lat)),
		inflight:  ph.inflightAtLast,
	}
	v.badness = math.Max(v.p99.ns/float64(limitNs),
		math.Max(v.failShare/maxFailShare, float64(v.inflight)/(2*ph.rate*float64(limitNs)/1e3)))
	return v
}

// sloRate is the highest offered rate that meets the limit. The ladder
// is a fixed grid of absolute rates, rung0 x 1.2^(j/4): a run climbs
// the coarse rungs (every fourth point) to the first that fails, then
// the fine ones inside that last 20 % step, so the limit is bracketed
// between two rates 4.7 % apart; within that bracket the binding
// criterion is interpolated linearly (with p99 binding, linear
// interpolation on p99). A 3 % capacity change therefore moves the
// result. A ladder that does not bracket the limit is an error: the
// number would be an extrapolation.
// errNoBracket marks a ladder whose rungs do not straddle the limit;
// errBelowLadder is the case where even the lowest rung fails, so the
// rate sought lies below every rate tried.
var (
	errNoBracket   = errors.New("ladder does not bracket the limit")
	errBelowLadder = fmt.Errorf("%w: lowest rung already fails", errNoBracket)
)

func sloRate(vs []rungVerdict) (float64, error) {
	vs = append([]rungVerdict(nil), vs...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].rate < vs[j].rate })
	if !vs[0].pass() {
		return 0, fmt.Errorf("%w at %.4g ops/us (badness %.3g)", errBelowLadder, vs[0].rate, vs[0].badness)
	}
	for k := 1; k < len(vs); k++ {
		if vs[k].pass() {
			continue
		}
		lo, hi := vs[k-1], vs[k]
		if math.IsInf(hi.badness, 1) {
			return lo.rate, nil
		}
		return lo.rate + (hi.rate-lo.rate)*(1-lo.badness)/(hi.badness-lo.badness), nil
	}
	last := vs[len(vs)-1]
	return 0, fmt.Errorf("%w: highest rung %.4g ops/us still passes (badness %.3g)", errNoBracket, last.rate, last.badness)
}
