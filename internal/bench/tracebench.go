package bench

import (
	"fmt"
	"strings"

	"lite/internal/obs"
	"lite/internal/simtime"
)

func init() {
	register("trace", "Span tree of one traced LT_RPC, 8B -> 4KB (5.3)", trace)
}

// traceRPC runs the §5.3 single-RPC workload — user-level client and
// user-level echo server on a 2-node cluster, one warmup call, then
// one measured call — and returns the measured call's end-to-end
// latency plus (when traced) every span recorded during it. The
// workload is identical either way, so the traced and untraced
// latencies must agree exactly; the trace experiment and the obs
// tests both assert that.
func traceRPC(traced bool) (simtime.Time, []obs.SpanView, error) {
	cls, dep, err := newLITE(2)
	if err != nil {
		return 0, nil, err
	}
	var dom *obs.Domain
	if traced {
		dom = cls.EnableObs()
		dom.EnableTracing()
	}
	inst := dep.Instance(1)
	if err := inst.RegisterRPC(benchFn); err != nil {
		return 0, nil, err
	}
	// The paper's breakdown is for user-level processes on both ends:
	// the client pays the LT_RPC entry crossing, the server the
	// LT_replyRPC entry crossing — two crossings total (§5.2).
	cls.GoDaemonOn(1, "echo", func(p *simtime.Proc) {
		c := inst.UserClient()
		call, err := c.RecvRPC(p, benchFn)
		for err == nil {
			call, err = c.ReplyRecvRPC(p, call, echoReply(call.Input), benchFn)
		}
	})
	var lat simtime.Time
	err = runProc(cls, 0, "client", func(p *simtime.Proc) (err error) {
		c := dep.Instance(0).UserClient()
		in := rpcInput(8, 4096)
		lat, err = meanLatency(p, 1, 1, func(i int) error {
			if i == 1 {
				// Warmup done (binding negotiated, NIC caches hot):
				// restrict the trace to exactly the measured call.
				dom.ResetSpans()
			}
			_, err := c.RPC(p, 1, benchFn, in, 4104)
			return err
		})
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	var spans []obs.SpanView
	if traced {
		spans = dom.Spans()
	}
	return lat, spans, nil
}

// spanTreeRows renders the spans as an indented tree, depth-first in
// start order, with starts relative to the earliest span.
func spanTreeRows(t *Table, spans []obs.SpanView) {
	present := make(map[uint64]bool, len(spans))
	for _, v := range spans {
		present[v.ID] = true
	}
	children := make(map[uint64][]obs.SpanView)
	var roots []obs.SpanView
	for _, v := range spans {
		if v.Parent != 0 && present[v.Parent] {
			children[v.Parent] = append(children[v.Parent], v)
		} else {
			roots = append(roots, v)
		}
	}
	base := spans[0].Start
	var walk func(v obs.SpanView, depth int)
	walk = func(v obs.SpanView, depth int) {
		t.AddRow(strings.Repeat("  ", depth)+v.Name,
			fmt.Sprintf("%d", v.Node), us(v.Start-base), us(v.Dur()))
		for _, c := range children[v.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// trace regenerates the §5.3 breakdown as an emergent property of the
// span tree: no hand-rolled timers, just the spans each layer records.
func trace() (*Table, error) {
	base, _, err := traceRPC(false)
	if err != nil {
		return nil, err
	}
	lat, spans, err := traceRPC(true)
	if err != nil {
		return nil, err
	}
	if lat != base {
		return nil, fmt.Errorf("trace: tracing perturbed the timeline: %v traced vs %v untraced", lat, base)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("trace: no spans recorded")
	}
	var root *obs.SpanView
	for k, v := range spans {
		if v.Name == "lite.rpc" {
			root = &spans[k]
			break
		}
	}
	if root == nil || root.Dur() != lat {
		return nil, fmt.Errorf("trace: client root span does not cover the call (%+v vs %v)", root, lat)
	}
	t := &Table{
		ID:     "trace",
		Title:  "One traced LT_RPC, 8B input -> 4KB return (5.3)",
		Header: []string{"Span", "Node", "Start (us)", "Dur (us)"},
	}
	spanTreeRows(t, spans)
	sums := obs.SumByName(spans)
	t.Note("traced end-to-end %s us == untraced %s us: observability is timeline-neutral", us(lat), us(base))
	t.Note("crossings %s us, metadata checks %s us (paper 5.3: ~0.17 us and <0.3 us)", us(sums["hostos.crossing"]), us(sums["lite.check"]))
	t.Note("server spans overlap the client's wait: the tree shows where the time goes, not a disjoint partition")
	return t, nil
}
