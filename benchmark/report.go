package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lite/internal/params"
	"lite/internal/simtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one benchmark run of one workload: the last JSON line the
// driver reads, plus the human-readable lines printed above it.
type result struct {
	workload  string
	seed      uint64
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	lines     []string
	// baseLat is the base phase's latencies in arrival order (tests
	// compare runs sample for sample).
	baseLat []int64
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// The end-to-end metrics, the same on every workload. V metrics run on
// the virtual clock and are a pure function of (seed, seconds); H
// metrics (host: true) run on the host clock. bound is the share by
// which a metric may get worse against the parent commit before the
// change counts as a regression. It is sized from the metric's spread
// across seeds (the distance between the quartiles of ten seeds, as a
// share of their median, on the workload where that is widest;
// README.md has the table), because the driver compares medians over
// seeds.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
	host               bool
}{
	{"op_p50_us", "us", "lower", 0.10, false},              // successful-op latency at rateBase
	{"op_p99_us", "us", "lower", 0.10, false},              //
	{"op_p999_us", "us", "lower", 0.25, false},             //
	{"op_p99_hi_us", "us", "lower", 0.12, false},           // p99 at rateHi, queues part-full
	{"slo_rate_ops_per_us", "1/us", "higher", 0.20, false}, // highest offered rate meeting the limit
	{"vcpu_us_per_op", "us", "lower", 0.06, false},         // modelled CPU per request, pollers included
	{"sim_ops_per_cpu_s", "1/s", "higher", 0.20, true},     // base+hi ops per host CPU-second
	{"host_peak_rss_mb", "MB", "lower", 0.10, true},        //
	{"setup_s", "s", "lower", 0.25, true},                  // median cluster set-up time
}

// virtualMetrics names the end-to-end metrics that must be
// bit-identical between two runs of the same code, seed and seconds.
func virtualMetrics() (names []string) {
	for _, m := range endToEnd {
		if !m.host {
			names = append(names, m.name)
		}
	}
	return names
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// noteQuantile prints a percentile with the support it was computed
// from.
func (r *result) noteQuantile(name string, q quantile) {
	r.notef("%-22s %12.4f us   (n=%d, %d samples beyond)", name, q.us(), q.n, q.beyond)
}

// measure is the plain run: set a cluster up and drive base, hi and
// the ladder on it, then set up setupRepeats-1 more clusters so that
// setup_s is a median, and report the end-to-end metrics.
func measure(sp *spec, cfg params.Config, seed uint64, scale float64, setupRepeats int) (*result, error) {
	d, err := runOnce(sp, cfg, seed, options{scale: scale, upTo: stageAll})
	if err != nil {
		return nil, err
	}
	setups := []float64{d.setupSec}
	for i := 1; i < setupRepeats; i++ {
		extra, err := runOnce(sp, cfg, seed, options{scale: scale, upTo: stageSetup})
		if err != nil {
			return nil, err
		}
		setups = append(setups, extra.setupSec)
	}

	r := &result{workload: sp.name, seed: seed, metrics: make(map[string]metric), baseLat: d.base.lat}
	base, hi := sortedCopy(d.base.lat), sortedCopy(d.hi.lat)
	p50, p99, p999, p99hi := quantileOf(base, 0.5), quantileOf(base, 0.99), quantileOf(base, 0.999), quantileOf(hi, 0.99)
	r.set("op_p50_us", p50.us(), "us")
	r.set("op_p99_us", p99.us(), "us")
	r.set("op_p999_us", p999.us(), "us")
	r.set("op_p99_hi_us", p99hi.us(), "us")
	r.noteQuantile("op_p50_us", p50)
	r.noteQuantile("op_p99_us", p99)
	r.noteQuantile("op_p999_us", p999)
	r.noteQuantile("op_p99_hi_us", p99hi)

	r.attempted = len(d.base.lat) + len(d.hi.lat)
	wrong := d.base.wrong + d.hi.wrong
	r.failed = d.base.failed + d.hi.failed + wrong
	measured := r.attempted
	r.notef("ladder (limit: p99 <= %.1f us, fail share <= %g, in flight at last arrival <= 2 x rate x limit):", float64(sp.limitNs)/1e3, maxFailShare)
	for i, ph := range d.ladder {
		v := d.verdicts[i]
		wrong += ph.wrong
		measured += len(ph.lat)
		r.notef("  %-6s offered %8.4f /us  p99 %11.3f us  fail share %.5f  in flight %5d  -> %s",
			ph.name, v.rate, v.p99.us(), v.failShare, v.inflight, map[bool]string{true: "pass", false: "FAIL"}[v.pass()])
	}
	// A ladder that fails to bracket is an error, but the result still
	// carries every other metric (the self-test perturbs capacity on
	// purpose and reads latencies).
	slo, sloErr := sloRate(d.verdicts)
	if sloErr != nil {
		sloErr = fmt.Errorf("%s: %w", sp.name, sloErr)
	}
	failShare := float64(r.failed) / float64(r.attempted)
	r.set("slo_rate_ops_per_us", slo, "1/us")
	r.set("vcpu_us_per_op", float64(d.base.vcpu)/1e3/float64(d.base.completed()), "us")
	hostCPU := d.base.hostCPU + d.hi.hostCPU
	r.set("sim_ops_per_cpu_s", float64(r.attempted)/hostCPU.Seconds(), "1/s")
	r.set("host_peak_rss_mb", d.rssMB, "MB")
	r.set("setup_s", median(setups), "s")
	r.notef("%-22s %12.6f       (base + hi: %d failed of %d attempted, %d wrong replies in all phases)", "fail_share", failShare, r.failed, r.attempted, wrong)
	r.notef("measured %d ops: base %d at %.4g /us and hi %d at %.4g /us in %.2f host CPU-s, then %d ladder rungs; generator lateness max %v",
		measured, len(d.base.lat), sp.rateBase, len(d.hi.lat), sp.rateHi, hostCPU.Seconds(), len(d.ladder), max(d.base.lateMax, d.hi.lateMax))
	// A wrong reply anywhere, or an operating point that fails more than
	// the limit allows, makes the run's numbers meaningless.
	r.correct = wrong == 0 && failShare <= maxFailShare && sloErr == nil
	return r, sloErr
}

// perLayer lists the traced run's metrics in reporting order.
var perLayer []struct{ name, unit, better string }

func init() {
	add := func(unit string, names ...string) {
		for _, n := range names {
			better := "lower"
			if higherIsBetter[n] {
				better = "higher"
			}
			perLayer = append(perLayer, struct{ name, unit, better string }{n, unit, better})
		}
	}
	add("us", "hostos.crossing_us_per_op", "hostos.dispatch_us_per_op", "hostos.wakeup_us_per_op")
	add("count", "hostos.syscalls_per_op")
	add("ratio", "hostos.wait_slept_share")
	add("us", "lite.check_us_per_op", "lite.post_us_per_op", "lite.wait_us_per_op", "lite.server_us_per_op")
	add("count", "lite.rpc_queue_depth_p99")
	add("ratio", "lite.shed_share")
	add("count", "lite.retry_attempts_per_op", "lite.recv_restock_per_op", "lite.poller_coalesced_per_op")
	add("count", "rnic.wr_per_op", "rnic.atomic_per_op")
	add("us", "rnic.tx_us_per_op", "rnic.tx_dma_us_per_op", "rnic.rx_us_per_op", "rnic.rx_dma_us_per_op")
	add("us", "rnic.tx_busy_us_per_op", "rnic.rx_busy_us_per_op", "rnic.dma_busy_us_per_op")
	add("ratio", "rnic.inline_share", "rnic.mrkey_hit_ratio", "rnic.pte_hit_ratio", "rnic.qp_hit_ratio")
	add("ratio", "rnic.rx_busy_share_max", "rnic.tx_busy_share_max", "rnic.dma_busy_share_max")
	add("count", "rnic.timeouts")
	add("us", "fabric.wire_us_per_op", "fabric.queue_wait_p99_us")
	add("count", "fabric.msgs_per_op")
	add("B", "fabric.bytes_per_op")
	add("count", "fabric.dropped")
	add("ratio", "fabric.egress_busy_share_max", "fabric.downlink_busy_share_max")
	add("us", "fabric.spine_wait_p99_us")
	add("us", "kvstore.get_p50_us", "kvstore.put_p99_us")
	add("count", "kvstore.direct_retries_per_get")
	add("ratio", "kvstore.direct_fallback_share")
	add("count", "kvstore.attaches", "kvstore.meta_lookups_per_op", "kvstore.served_ops_per_op")
	add("us", "load.lateness_max_us")
	add("count", "load.issued")
	for _, c := range benchClasses {
		add("us", "bench."+c+".p50_us", "bench."+c+".p99_us")
	}
	add("us", "bench.op_mean_us", "bench.unattributed_us_per_op")
	add("ratio", "bench.attributed_share", "bench.fail_share")
	add("count", "simtime.events_per_op")
	for _, pr := range hostProbes {
		add("ns", pr.name)
	}
	add("ratio", "trace.host_overhead_ratio")
}

// higherIsBetter marks the per-layer metrics where more is better; for
// every other one (times, counts of work, busy shares) less is.
var higherIsBetter = map[string]bool{
	"rnic.inline_share": true, "rnic.mrkey_hit_ratio": true, "rnic.pte_hit_ratio": true, "rnic.qp_hit_ratio": true,
	"lite.poller_coalesced_per_op": true, "bench.attributed_share": true, "load.issued": true,
}

// benchClasses is every op class of every workload; a workload reports
// 0 for the classes it does not issue.
var benchClasses = []string{"rpc", "read64", "read4k", "read64k", "write64", "write4k", "write64k", "get", "put"}

// spanMetrics maps a span name to the per-layer metric its self time
// feeds.
var spanMetrics = map[string]string{
	"hostos.crossing": "hostos.crossing_us_per_op",
	"hostos.dispatch": "hostos.dispatch_us_per_op",
	"hostos.wakeup":   "hostos.wakeup_us_per_op",
	"lite.check":      "lite.check_us_per_op",
	"lite.rpc.post":   "lite.post_us_per_op",
	"lite.rpc.wait":   "lite.wait_us_per_op",
	"lite.rpc.server": "lite.server_us_per_op",
	"rnic.tx":         "rnic.tx_us_per_op",
	"rnic.tx_dma":     "rnic.tx_dma_us_per_op",
	"rnic.rx":         "rnic.rx_us_per_op",
	"rnic.rx_dma":     "rnic.rx_dma_us_per_op",
	"fabric.wire":     "fabric.wire_us_per_op",
	unattributed:      "bench.unattributed_us_per_op",
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hitRatio is hits / lookups; a cache nobody consulted missed nothing.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// traceRun is the traced run: the first tracedOps base ops once plain
// and once with obs and tracing on, compared sample for sample, then
// the per-layer metrics from the traced one's spans, counters and busy
// probes, plus the host-clock probes.
func traceRun(sp *spec, cfg params.Config, seed uint64, scale float64, outDir string) (*result, error) {
	// The host probes go first, on a heap no cluster has touched: what
	// the garbage collector has to walk must not depend on the workload.
	probes, err := runHostProbes(scale)
	if err != nil {
		return nil, err
	}
	cut := sp.ops(sp.tracedOps, scale)
	plain, err := runOnce(sp, cfg, seed, options{scale: scale, upTo: stageBase, baseCut: cut})
	if err != nil {
		return nil, err
	}
	traced, err := runOnce(sp, cfg, seed, options{scale: scale, upTo: stageBase, baseCut: cut, traced: true})
	if err != nil {
		return nil, err
	}
	r := &result{workload: sp.name, seed: seed, metrics: make(map[string]metric), baseLat: traced.base.lat}
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	setv := func(name string, v float64) {
		m, ok := r.metrics[name]
		if !ok {
			panic("benchmark: unregistered per-layer metric " + name)
		}
		m.Value = v
		r.metrics[name] = m
	}

	// Tracing must cost exactly nothing on the virtual clock.
	same := len(plain.base.lat) == len(traced.base.lat)
	for k := 0; same && k < len(plain.base.lat); k++ {
		same = plain.base.lat[k] == traced.base.lat[k]
	}
	if !same {
		r.notef("TRACED RUN DIVERGED: its latencies differ from the plain run's")
	}

	ph := traced.base
	n := len(ph.lat)
	nf := float64(n)
	r.attempted, r.failed = n, ph.failed+ph.wrong
	r.correct = same && ph.wrong == 0 && plain.base.wrong == 0

	rows, ops := attribute(traced.dom.Spans())
	var opNs, attributedNs int64
	for _, o := range ops {
		opNs += int64(o.root.Dur())
	}
	for _, row := range rows {
		row.SelfUsPerOp = float64(row.selfNs) / 1e3 / nf
		row.Share = ratio(row.selfNs, opNs)
		row.SpansPerOp = float64(row.seen) / nf
		if row.Name != unattributed {
			attributedNs += row.selfNs
		}
		if m, ok := spanMetrics[row.Name]; ok {
			setv(m, row.SelfUsPerOp)
		}
	}
	setv("bench.op_mean_us", float64(opNs)/1e3/nf)
	setv("bench.attributed_share", ratio(attributedNs, opNs))
	setv("bench.fail_share", ratio(int64(r.failed), int64(n)))

	snap := traced.dom.Snapshot()
	c := snap.Counters
	hq := func(name string, q float64) float64 { return float64(snap.Hists[name].Quantile(q)) }
	b0, b1 := traced.probes0, traced.probes1
	window := ph.end - ph.start
	wrs := b1.wrs - b0.wrs
	waits := c["hostos.wait.immediate"] + c["hostos.wait.polled"] + c["hostos.wait.slept"]
	setv("hostos.syscalls_per_op", float64(c["hostos.syscalls"]+c["hostos.kernel_enters"])/nf)
	setv("hostos.wait_slept_share", ratio(c["hostos.wait.slept"], waits))
	setv("lite.rpc_queue_depth_p99", hq("lite.rpc.queue_depth", 0.99))
	setv("lite.shed_share", ratio(c["lite.rpc.shed"], c["lite.rpc.shed"]+c["lite.rpc.served"]))
	setv("lite.retry_attempts_per_op", float64(c["lite.retry.attempts"])/nf)
	setv("lite.recv_restock_per_op", float64(c["lite.recv_restock"])/nf)
	setv("lite.poller_coalesced_per_op", float64(c["lite.poller.coalesced"])/nf)
	setv("rnic.wr_per_op", float64(wrs)/nf)
	setv("rnic.atomic_per_op", float64(c["rnic.atomic.executed"])/nf)
	setv("rnic.inline_share", ratio(c["rnic.inline_wqes"], wrs))
	setv("rnic.mrkey_hit_ratio", hitRatio(c["rnic.mrkey.hits"], c["rnic.mrkey.misses"]))
	setv("rnic.pte_hit_ratio", hitRatio(c["rnic.pte.hits"], c["rnic.pte.misses"]))
	setv("rnic.qp_hit_ratio", hitRatio(c["rnic.qp.hits"], c["rnic.qp.misses"]))
	setv("rnic.timeouts", float64(c["rnic.timeouts"]))
	for _, f := range []struct {
		name          string
		before, after []simtime.Time
	}{{"tx", b0.tx, b1.tx}, {"rx", b0.rx, b1.rx}, {"dma", b0.dma, b1.dma}} {
		sum, share := busyStats(f.before, f.after, window)
		setv("rnic."+f.name+"_busy_us_per_op", float64(sum)/1e3/nf)
		setv("rnic."+f.name+"_busy_share_max", share)
	}
	_, egress := busyStats(b0.egress, b1.egress, window)
	_, downlink := busyStats(b0.downlink, b1.downlink, window)
	setv("fabric.egress_busy_share_max", egress)
	setv("fabric.downlink_busy_share_max", downlink)
	setv("fabric.queue_wait_p99_us", hq("fabric.queue_wait", 0.99)/1e3)
	setv("fabric.spine_wait_p99_us", hq("fabric.clos.spine_wait", 0.99)/1e3)
	setv("fabric.msgs_per_op", float64(c["fabric.msgs"])/nf)
	setv("fabric.bytes_per_op", float64(c["fabric.bytes"])/nf)
	setv("fabric.dropped", float64(c["fabric.dropped"]))
	setv("load.lateness_max_us", float64(ph.lateMax)/1e3)
	setv("load.issued", nf)
	setv("simtime.events_per_op", float64(ph.events)/nf)

	// Per-class latency, and the kvstore's view of its own two classes.
	byClass := make(map[string][]int64)
	classes := traced.w.classes()
	for k, o := range ph.ops {
		byClass[classes[o.class]] = append(byClass[classes[o.class]], ph.lat[k])
	}
	for _, name := range classes {
		s := sortedCopy(byClass[name])
		q50, q99 := quantileOf(s, 0.5), quantileOf(s, 0.99)
		setv("bench."+name+".p50_us", q50.us())
		setv("bench."+name+".p99_us", q99.us())
		r.noteQuantile("bench."+name+".p50_us", q50)
		r.noteQuantile("bench."+name+".p99_us", q99)
	}
	if traced.w.shared().store != nil {
		gets := int64(len(byClass["get"]))
		setv("kvstore.get_p50_us", r.metrics["bench.get.p50_us"].Value)
		setv("kvstore.put_p99_us", r.metrics["bench.put.p99_us"].Value)
		setv("kvstore.direct_retries_per_get", ratio(b1.kvRetries-b0.kvRetries, gets))
		setv("kvstore.direct_fallback_share", ratio(b1.kvFallbacks-b0.kvFallbacks, gets))
		setv("kvstore.attaches", float64(b1.kvAttaches-b0.kvAttaches))
		setv("kvstore.meta_lookups_per_op", float64(b1.kvLookups-b0.kvLookups)/nf)
		setv("kvstore.served_ops_per_op", float64(b1.kvServed-b0.kvServed)/nf)
	}

	for name, v := range probes {
		setv(name, v)
	}
	setv("trace.host_overhead_ratio", traced.base.hostCPU.Seconds()/plain.base.hostCPU.Seconds())

	// Infinite percentiles (a class whose tail is failed ops) cannot be
	// carried in JSON; the run is incorrect anyway.
	for name, m := range r.metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			r.correct = false
			r.notef("%s is not finite", name)
			m.Value = -1
			r.metrics[name] = m
		}
	}

	r.notef("traced %d base ops; traced == plain sample for sample: %v; %.1f %% of the mean op (%.4f us) attributed to named layers",
		n, same, 100*r.metrics["bench.attributed_share"].Value, r.metrics["bench.op_mean_us"].Value)
	var table strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&table, "  %-22s %10.4f us/op  %6.2f %%  %6.2f spans/op\n", row.Name, row.SelfUsPerOp, 100*row.Share, row.SpansPerOp)
	}
	r.notef("layer self time:\n%s", strings.TrimRight(table.String(), "\n"))
	if outDir != "" {
		lf := &layersFile{
			Workload: sp.name, Seed: seed, TracedOps: n,
			MeanOpUs:        r.metrics["bench.op_mean_us"].Value,
			AttributedShare: r.metrics["bench.attributed_share"].Value,
			Layers:          rows, Counters: c, Metrics: r.metrics,
		}
		if err := writeTrace(outDir, lf, ops); err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", sp.name, err)
		}
		r.notef("wrote %s/%s.layers.json and .spans.jsonl (span trees of the %d slowest ops)", outDir, sp.name, slowestOps)
	}
	return r, nil
}
