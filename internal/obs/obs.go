// Package obs is the observability subsystem: virtual-time-aware
// tracing and metrics that every simulated layer reports into.
//
// A Registry holds one node's typed counters and latency histograms
// (virtual-time buckets, mergeable across nodes) plus lightweight
// spans opened and closed in virtual time with parent links. A Domain
// groups the per-node registries of one cluster, hands out globally
// unique span ids, and merges everything into one Snapshot.
//
// The design is zero-cost when disabled: every method is safe on a
// nil *Registry, nil *Domain, and nil *Span, and does nothing there —
// call sites never branch. Crucially, nothing in this package ever
// advances virtual time or wakes a process, so enabling observability
// cannot perturb the cost model: a traced run and an untraced run of
// the same workload produce identical virtual timelines (the bench
// harness and obs tests enforce this).
//
// Like the rest of the simulation state, a Registry relies on the
// simtime scheduler's one-process-at-a-time guarantee instead of
// locks; do not share one Registry across simulation environments.
package obs

import (
	"sort"
	"time"
)

// Time is a virtual timestamp or duration (simtime.Time has the same
// underlying type; obs avoids the import so lower layers stay free to
// depend on it in either direction).
type Time = time.Duration

// Counter is a monotonically updated typed counter.
type Counter struct {
	v int64
}

// Add increments the counter. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// idGen hands out span ids; one is shared by all registries of a
// Domain so span ids are unique across nodes.
type idGen struct{ next uint64 }

func (g *idGen) id() uint64 {
	g.next++
	return g.next
}

// Registry is one node's metric and span sink. The zero value is not
// usable; construct one through a Domain. All methods
// are safe (and free) on a nil receiver — a nil *Registry IS the
// disabled state.
type Registry struct {
	node int
	ids  *idGen

	counters map[string]*Counter
	corder   []string
	hists    map[string]*Histogram
	horder   []string

	tracing *bool // shared across a Domain's registries
	spans   []*Span
}

// Counter returns (creating on first use) the named counter; nil on a
// nil registry, so chained Counter(...).Add(...) is always safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.corder = append(r.corder, name)
	return c
}

// Add is shorthand for Counter(name).Add(n).
func (r *Registry) Add(name string, n int64) {
	if r != nil {
		r.Counter(name).Add(n)
	}
}

// Histogram returns (creating on first use) the named latency
// histogram; nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	r.horder = append(r.horder, name)
	return h
}

// Observe is shorthand for Histogram(name).Record(d).
func (r *Registry) Observe(name string, d Time) {
	if r != nil {
		r.Histogram(name).Record(d)
	}
}

// Snapshot returns a deep copy of the registry's metric state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Hists: map[string]*Histogram{}}
	if r == nil {
		return s
	}
	for _, name := range r.corder {
		s.Counters[name] = r.counters[name].v
	}
	for _, name := range r.horder {
		s.Hists[name] = r.hists[name].Clone()
	}
	return s
}

// Domain groups the registries of one cluster: one per node plus one
// global registry for cluster-scoped events (crashes, restarts). All
// methods are safe on a nil receiver.
type Domain struct {
	ids     idGen
	tracing bool
	nodes   []*Registry
	global  *Registry
}

// NewDomain returns a domain with n per-node registries. The global
// registry reports as node -1.
func NewDomain(n int) *Domain {
	d := &Domain{}
	mk := func(node int) *Registry {
		return &Registry{
			node:     node,
			ids:      &d.ids,
			counters: make(map[string]*Counter),
			hists:    make(map[string]*Histogram),
			tracing:  &d.tracing,
		}
	}
	for i := 0; i < n; i++ {
		d.nodes = append(d.nodes, mk(i))
	}
	d.global = mk(-1)
	return d
}

// Node returns the registry of the given node; nil on a nil domain or
// out-of-range node.
func (d *Domain) Node(i int) *Registry {
	if d == nil || i < 0 || i >= len(d.nodes) {
		return nil
	}
	return d.nodes[i]
}

// Global returns the cluster-scoped registry.
func (d *Domain) Global() *Registry {
	if d == nil {
		return nil
	}
	return d.global
}

// Registries returns every registry (nodes in order, then global).
func (d *Domain) Registries() []*Registry {
	if d == nil {
		return nil
	}
	return append(append([]*Registry(nil), d.nodes...), d.global)
}

// EnableTracing turns span collection on for every registry.
func (d *Domain) EnableTracing() {
	if d != nil {
		d.tracing = true
	}
}

// Total sums the named counter across all registries.
func (d *Domain) Total(name string) int64 {
	var t int64
	for _, r := range d.Registries() {
		if c, ok := r.counters[name]; ok {
			t += c.v
		}
	}
	return t
}

// Snapshot merges all registries' metrics into one Snapshot: counters
// sum, histograms merge bucket-wise (so percentiles stay exact).
func (d *Domain) Snapshot() Snapshot {
	if d == nil {
		return Snapshot{Counters: map[string]int64{}, Hists: map[string]*Histogram{}}
	}
	snaps := make([]Snapshot, 0, len(d.nodes)+1)
	for _, r := range d.Registries() {
		snaps = append(snaps, r.Snapshot())
	}
	return Merge(snaps...)
}

// Spans returns every closed span across the domain, ordered by
// (start time, id) so output is deterministic.
func (d *Domain) Spans() []SpanView {
	var out []SpanView
	for _, r := range d.Registries() {
		for _, s := range r.spans {
			if !s.open {
				out = append(out, s.view())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ResetSpans discards collected spans (typically after warmup, so a
// trace covers exactly the measured window).
func (d *Domain) ResetSpans() {
	if d == nil {
		return
	}
	for _, r := range d.Registries() {
		r.spans = nil
	}
}
