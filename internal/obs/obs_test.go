package obs

import (
	"reflect"
	"testing"
	"time"
)

func TestNilReceiversAreNoops(t *testing.T) {
	// The disabled state IS a nil registry: every call chain must be
	// safe and side-effect free.
	var r *Registry
	r.Add("x", 3)
	r.Counter("x").Add(1)
	r.Observe("h", time.Microsecond)
	r.Histogram("h").Record(1)
	s := r.StartSpan(0, "root", nil)
	if s != nil {
		t.Fatal("nil registry produced a span")
	}
	s.Done(5)
	r.AddSpan(0, 1, "x", nil)
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Hists) != 0 {
		t.Fatalf("nil snapshot = %+v", got)
	}
	var d *Domain
	d.EnableTracing()
	if d.Node(0) != nil || d.Global() != nil || d.Total("x") != 0 {
		t.Fatal("nil domain not inert")
	}
	d.ResetSpans()
	if len(d.Spans()) != 0 {
		t.Fatal("nil domain has spans")
	}
}

func TestCountersAndSnapshots(t *testing.T) {
	r := NewDomain(4).Node(3)
	r.Add("a", 2)
	r.Add("a", 3)
	r.Counter("b").Add(1)
	snap := r.Snapshot()
	r.Add("a", 100)
	if snap.Counters["a"] != 5 || snap.Counters["b"] != 1 {
		t.Fatalf("snapshot not a copy: %+v", snap.Counters)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []Time{100, 200, 300, 400, 1000} {
		h.Record(d)
	}
	if h.Count() != 5 || h.Sum() != 2000 || h.Min() != 100 || h.Max() != 1000 {
		t.Fatalf("stats = n%d sum%d min%d max%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 400 {
		t.Fatalf("mean = %d", h.Mean())
	}
	if q := h.Quantile(0); q != 100 {
		t.Fatalf("q0 = %d", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q1 = %d", q)
	}
	// Quantiles must be monotone and clamped to [min, max].
	prev := Time(0)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev || v < h.Min() || v > h.Max() {
			t.Fatalf("quantile(%f) = %d not monotone in [min,max]", q, v)
		}
		prev = v
	}
	// Negative observations clamp to zero instead of corrupting state.
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 6 {
		t.Fatalf("negative record: min %d count %d", h.Min(), h.Count())
	}
}

func TestHistogramMergeEqualsCombinedStream(t *testing.T) {
	// Merging two histograms must equal recording both streams into
	// one: identical counts, sums, extremes, buckets, and quantiles.
	streamA := []Time{1, 7, 130, 4096, 90000}
	streamB := []Time{3, 130, 255, 70000, 1 << 20}
	var ha, hb, all Histogram
	for _, d := range streamA {
		ha.Record(d)
		all.Record(d)
	}
	for _, d := range streamB {
		hb.Record(d)
		all.Record(d)
	}
	merged := ha.Clone()
	merged.Merge(&hb)
	if merged.Count() != all.Count() || merged.Sum() != all.Sum() ||
		merged.Min() != all.Min() || merged.Max() != all.Max() {
		t.Fatalf("merge stats differ: %+v vs %+v", merged, all)
	}
	if merged.buckets != all.buckets {
		t.Fatal("merge buckets differ from combined stream")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if merged.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%.2f: merged %d vs combined %d", q, merged.Quantile(q), all.Quantile(q))
		}
	}
	// Merging into empty and merging empty are both exact.
	empty := &Histogram{}
	c := all.Clone()
	c.Merge(empty)
	empty.Merge(&all)
	if c.Count() != all.Count() || empty.Count() != all.Count() || empty.Min() != all.Min() {
		t.Fatal("empty merge not exact")
	}
}

func TestBucketBounds(t *testing.T) {
	// Bucket i must hold exactly (2^(i-1), 2^i].
	for _, d := range []Time{1, 2, 3, 4, 5, 8, 9, 1023, 1024, 1025} {
		b := bucketOf(d)
		if d > bucketUpper(b) {
			t.Fatalf("d=%d above bucket %d upper %d", d, b, bucketUpper(b))
		}
		if b > 0 && d <= bucketUpper(b-1) {
			t.Fatalf("d=%d should be in bucket %d or lower", d, b-1)
		}
	}
}

func TestSpanTreeAndHelpers(t *testing.T) {
	d := NewDomain(2)
	d.EnableTracing()
	r0, r1 := d.Node(0), d.Node(1)
	root := r0.StartSpan(0, "rpc", nil)
	a := r0.StartSpan(10, "post", root)
	a.Done(20)
	b := r1.StartSpan(20, "server", root)
	c := r1.StartSpan(25, "check", b)
	c.Done(30)
	b.Done(40)
	open := r0.StartSpan(50, "never-closed", root)
	_ = open
	root.Done(100)

	spans := d.Spans()
	if len(spans) != 4 {
		t.Fatalf("closed spans = %d (open span must be excluded)", len(spans))
	}
	// Sorted by start; ids are globally unique across nodes.
	seen := map[uint64]bool{}
	for i, v := range spans {
		if i > 0 && spans[i-1].Start > v.Start {
			t.Fatal("spans not start-ordered")
		}
		if seen[v.ID] {
			t.Fatalf("duplicate span id %d", v.ID)
		}
		seen[v.ID] = true
	}
	parent := map[string]string{}
	names := map[uint64]string{}
	for _, v := range spans {
		names[v.ID] = v.Name
	}
	for _, v := range spans {
		parent[v.Name] = names[v.Parent]
	}
	if want := map[string]string{"rpc": "", "post": "rpc", "server": "rpc", "check": "server"}; !reflect.DeepEqual(parent, want) {
		t.Fatalf("span parents = %v, want %v", parent, want)
	}
	sums := SumByName(spans)
	if sums["rpc"] != 100 || sums["post"] != 10 || sums["server"] != 20 || sums["check"] != 5 {
		t.Fatalf("sums = %+v", sums)
	}
	counts := CountByName(spans)
	if counts["rpc"] != 1 || counts["check"] != 1 {
		t.Fatalf("counts = %+v", counts)
	}
	// Double-close keeps the first end.
	c.Done(9999)
	if SumByName(d.Spans())["check"] != 5 {
		t.Fatal("double Done changed the span")
	}
	d.ResetSpans()
	if len(d.Spans()) != 0 {
		t.Fatal("ResetSpans left spans behind")
	}
}

func TestDomainTotalsAndMerge(t *testing.T) {
	d := NewDomain(3)
	d.Node(0).Add("rpc.calls", 2)
	d.Node(2).Add("rpc.calls", 3)
	d.Global().Add("crashes", 1)
	if d.Total("rpc.calls") != 5 || d.Total("crashes") != 1 {
		t.Fatalf("totals = %d/%d", d.Total("rpc.calls"), d.Total("crashes"))
	}
	d.Node(0).Observe("lat", 100)
	d.Node(1).Observe("lat", 300)
	snap := d.Snapshot()
	if snap.Counters["rpc.calls"] != 5 || snap.Counters["crashes"] != 1 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	h := snap.Hists["lat"]
	if h.Count() != 2 || h.Min() != 100 || h.Max() != 300 {
		t.Fatalf("merged hist = %+v", h)
	}
	if names := snap.CounterNames(); !reflect.DeepEqual(names, []string{"crashes", "rpc.calls"}) {
		t.Fatalf("counter names = %v", names)
	}
	if names := snap.HistNames(); !reflect.DeepEqual(names, []string{"lat"}) {
		t.Fatalf("hist names = %v", names)
	}
}

func TestTracingDisabledRecordsNothing(t *testing.T) {
	d := NewDomain(1)
	r := d.Node(0)
	if s := r.StartSpan(0, "x", nil); s != nil {
		t.Fatal("span recorded with tracing off")
	}
	// Enabling the domain enables every registry in it.
	d.EnableTracing()
	if s := r.StartSpan(0, "x", nil); s == nil {
		t.Fatal("no node span after enable")
	}
	if s := d.Global().StartSpan(0, "x", nil); s == nil {
		t.Fatal("no span after enable")
	}
}

// BenchmarkDisabled verifies the zero-cost-when-disabled claim: the
// nil fast path must not allocate.
func BenchmarkDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add("counter", 1)
		r.Observe("hist", 100)
		s := r.StartSpan(0, "span", nil)
		s.Done(1)
	}
}

// BenchmarkEnabledCounter is the reference point for the disabled
// benchmark: the enabled hot path (existing counter) for comparison.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewDomain(1).Node(0)
	r.Add("counter", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add("counter", 1)
	}
}
