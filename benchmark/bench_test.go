package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/params"
)

// testScale shrinks every phase to a fiftieth (base 2 000 ops, rungs
// 800 on the 8-node workloads) so the suite stays in seconds.
const testScale = 0.02

func uniformSamples(scale int64) []int64 {
	s := make([]int64, 10_000)
	for i := range s {
		s[i] = (6000 + int64(i%2000)) * scale
	}
	return sortedCopy(s)
}

// A uniform 10 % speed-up must lower p50 and p99 by 10 %. This is the
// case obs.Histogram.Quantile (log2 buckets, rank interpolation) reads
// as no change at all, which is why the benchmark keeps raw samples.
func TestQuantileMovesWithUniformSpeedup(t *testing.T) {
	before, after := uniformSamples(10), uniformSamples(9)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		b, a := quantileOf(before, q), quantileOf(after, q)
		if math.Abs(a.ns/b.ns-0.9) > 1e-12 {
			t.Errorf("q%.3f: %v -> %v, want exactly 10 %% lower", q, b.ns, a.ns)
		}
	}
	var hb, ha obs.Histogram
	for i := range before {
		hb.Record(time.Duration(before[i]))
		ha.Record(time.Duration(after[i]))
	}
	t.Logf("obs.Histogram on the same samples: p50 %v -> %v, p99 %v -> %v", hb.Quantile(0.5), ha.Quantile(0.5), hb.Quantile(0.99), ha.Quantile(0.99))
}

func TestQuantileSupport(t *testing.T) {
	s := make([]int64, 50_000)
	for i := range s {
		s[i] = int64(i)
	}
	q := quantileOf(s, 0.999)
	// Rank 49 950, window +-25 ranks (half of the 50-sample tail).
	if q.n != 50_000 || q.beyond != 25 || q.ns != 49_949 {
		t.Errorf("p99.9 of 0..49999 = %+v, want ns 49949 with 25 of 50000 beyond", q)
	}
	if q := quantileOf([]int64{5}, 0.99); q.ns != 5 || q.beyond != 0 {
		t.Errorf("single sample: %+v", q)
	}
	// Failed ops sort last; once they reach down into the window (its top
	// rank is 49 975) the percentile is infinite.
	for i := 0; i < 25; i++ {
		s[i] = failedLat
	}
	if q := quantileOf(sortedCopy(s), 0.999); math.IsInf(q.ns, 1) {
		t.Errorf("25 failed ops stay beyond the p99.9 window, got +Inf")
	}
	s[25] = failedLat
	if q := quantileOf(sortedCopy(s), 0.999); !math.IsInf(q.ns, 1) {
		t.Errorf("26 failed ops reach the p99.9 window: got %v, want +Inf", q.ns)
	}
}

func TestSloRateInterpolatesAndBrackets(t *testing.T) {
	v := func(rate, badness float64) rungVerdict { return rungVerdict{rate: rate, badness: badness} }
	// Coarse 1.0 pass, 1.2 fail; fine 1.05 pass (0.8), 1.1 fail (1.2):
	// the limit is crossed halfway between the fine pair.
	got, err := sloRate([]rungVerdict{v(1.0, 0.5), v(1.2, 30), v(1.05, 0.8), v(1.1, 1.2)})
	if err != nil || math.Abs(got-1.075) > 1e-12 {
		t.Errorf("sloRate = %v, %v; want 1.075", got, err)
	}
	if _, err := sloRate([]rungVerdict{v(1.0, 1.5), v(1.2, 3)}); err == nil {
		t.Error("lowest rung failing must be an error")
	}
	if _, err := sloRate([]rungVerdict{v(1.0, 0.5), v(1.2, 0.9)}); err == nil {
		t.Error("highest rung passing must be an error")
	}
}

func TestAttributeGivesEveryInstantOneOwner(t *testing.T) {
	spans := []obs.SpanView{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "lite.rpc.wait", Start: 10, End: 90},
		{ID: 3, Parent: 1, Name: "rnic.rx", Start: 30, End: 60}, // overlaps the wait: later start wins
		{ID: 4, Parent: 3, Name: "rnic.rx_dma", Start: 50, End: 60},
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120}, // clipped at the op's end
		{ID: 6, Name: "detached", Start: 0, End: 100},         // not under any op
	}
	rows, ops := attribute(spans)
	if len(ops) != 1 || len(ops[0].spans) != 4 {
		t.Fatalf("ops = %+v", ops)
	}
	want := map[string]int64{"lite.rpc.wait": 50, "rnic.rx": 20, "rnic.rx_dma": 10, "late": 5, unattributed: 15}
	var sum int64
	for _, r := range rows {
		if r.selfNs != want[r.Name] {
			t.Errorf("%s: self %d ns, want %d", r.Name, r.selfNs, want[r.Name])
		}
		sum += r.selfNs
	}
	if sum != 100 {
		t.Errorf("rows sum to %d ns, want the op's 100", sum)
	}
}

func TestReplyChecksRejectWrongData(t *testing.T) {
	v := kvValue(directValue, 2, 17, 5)
	if !kvCheck(v, directValue, 2, 17, 5) {
		t.Fatal("a value must pass its own check")
	}
	if kvCheck(v, directValue, 2, 18, 5) || kvCheck(v, directValue, 1, 17, 5) {
		t.Error("a value of another key or namespace passed")
	}
	if kvCheck(v, directValue, 2, 17, 4) {
		t.Error("a value newer than the latest issued PUT passed")
	}
	v[len(v)-1] ^= 1
	if kvCheck(v, directValue, 2, 17, 5) {
		t.Error("a corrupted value passed")
	}
	buf := make([]byte, 4096)
	fillPattern(buf, 9, 8192)
	if !checkPattern(buf, 9, 8192) || checkPattern(buf, 9, 4096) || checkPattern(buf, 8, 8192) {
		t.Error("pattern check does not pin LMR and offset")
	}
	buf[100] ^= 1
	if checkPattern(buf, 9, 8192) {
		t.Error("a corrupted read passed")
	}
}

func testSpecs(t *testing.T) []*spec {
	if testing.Short() {
		return specs[:3] // the 500-node fleet takes seconds to set up
	}
	return specs
}

// Same seed twice: identical virtual metrics and latencies. Another
// seed: different latencies, the same system (p50 within 5 % at full
// length; within 25 % on these 2 000-op phases, where mem-mixed's
// median hangs on how many 64 KB transfers it queued behind). And no
// two workloads may agree on slo_rate_ops_per_us or op_p50_us: each
// ladder drives its own workload's issue function on its own cluster.
func TestDeterminismSeedsAndDistinctLadders(t *testing.T) {
	var firsts []*result
	for _, sp := range testSpecs(t) {
		if sp.name == "fleet" {
			// A 200-op rung lasts 30 us and cannot overrun a 250 us
			// limit, so the fleet's ladder needs its full length; its
			// determinism is checked on the base phase alone.
			base := func(seed uint64) []int64 {
				d, err := runOnce(sp, params.Default(), seed, options{scale: testScale, upTo: stageBase})
				if err != nil {
					t.Fatalf("fleet seed %d: %v", seed, err)
				}
				if d.base.failed+d.base.wrong != 0 {
					t.Fatalf("fleet seed %d: %d failed, %d wrong", seed, d.base.failed, d.base.wrong)
				}
				return d.base.lat
			}
			a, b, c := base(7), base(7), base(8)
			if !slices.Equal(a, b) {
				t.Error("fleet: two runs of seed 7 differ")
			}
			if slices.Equal(a, c) {
				t.Error("fleet: seeds 7 and 8 produced the same latencies")
			}
			continue
		}
		run := func(seed uint64) *result {
			r, err := measure(sp, params.Default(), seed, testScale, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !r.correct || r.failed != 0 {
				t.Fatalf("%s seed %d: correct=%v failed=%d; every reply must verify", sp.name, seed, r.correct, r.failed)
			}
			return r
		}
		a, b, c := run(7), run(7), run(8)
		for _, name := range virtualMetrics() {
			if a.metrics[name].Value != b.metrics[name].Value {
				t.Errorf("%s: %s differs between two runs of seed 7: %v vs %v", sp.name, name, a.metrics[name].Value, b.metrics[name].Value)
			}
			if a.metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", sp.name, name, a.metrics[name].Value)
			}
		}
		n := min(1000, len(a.baseLat))
		same := true
		for k := 0; k < n; k++ {
			if a.baseLat[k] != b.baseLat[k] {
				t.Fatalf("%s: latency %d differs between two runs of seed 7: %d vs %d", sp.name, k, a.baseLat[k], b.baseLat[k])
			}
			same = same && a.baseLat[k] == c.baseLat[k]
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced the same first %d latencies", sp.name, n)
		}
		if pa, pc := a.metrics["op_p50_us"].Value, c.metrics["op_p50_us"].Value; math.Abs(pa-pc) > 0.25*pa {
			t.Errorf("%s: op_p50_us %v (seed 7) vs %v (seed 8): more than 25 %% apart", sp.name, pa, pc)
		}
		firsts = append(firsts, a)
	}
	for i, a := range firsts {
		for _, b := range firsts[i+1:] {
			for _, name := range []string{"slo_rate_ops_per_us", "op_p50_us"} {
				if a.metrics[name].Value == b.metrics[name].Value {
					t.Errorf("%s and %s report the same %s: %v", a.workload, b.workload, name, a.metrics[name].Value)
				}
			}
		}
	}
}

// The traced run must reproduce the plain run sample for sample, put
// out every per-layer metric, and on rpc-small account for the op in
// named layers.
func TestTracedEqualsPlain(t *testing.T) {
	for _, sp := range testSpecs(t) {
		dir := t.TempDir()
		r, err := traceRun(sp, params.Default(), 7, testScale, dir)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !r.correct {
			t.Errorf("%s: traced run not correct:\n%v", sp.name, r.lines)
		}
		if len(r.metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", sp.name, len(r.metrics), len(perLayer))
		}
		share := r.metrics["bench.attributed_share"].Value
		if sp.name == "rpc-small" && share < 0.95 {
			t.Errorf("rpc-small: only %.1f %% of the op attributed to named layers, want >= 95 %%", 100*share)
		}
		if got := share*r.metrics["bench.op_mean_us"].Value + r.metrics["bench.unattributed_us_per_op"].Value; math.Abs(got-r.metrics["bench.op_mean_us"].Value) > 1e-6 {
			t.Errorf("%s: attributed + unattributed = %v us, want the mean op %v us", sp.name, got, r.metrics["bench.op_mean_us"].Value)
		}
		if sp.name == "kv-direct" && r.metrics["hostos.syscalls_per_op"].Value != 0 {
			t.Errorf("kv-direct: kernel-level clients crossed the user/kernel boundary %v times per op", r.metrics["hostos.syscalls_per_op"].Value)
		}
		for _, f := range []string{".layers.json", ".spans.jsonl"} {
			if st, err := os.Stat(filepath.Join(dir, sp.name+f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: %s missing or empty (%v)", sp.name, f, err)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; it must name exactly the
// workloads and metrics this program puts out, with the same units and
// host-clock bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program sizes its op counts for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, specs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound != endToEnd[i].bound || m.Better != endToEnd[i].better {
			t.Errorf("%s: bound %v better %q, program has %v %q", m.Name, m.Bound, m.Better, endToEnd[i].bound, endToEnd[i].better)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
