package obs

// Span is one timed region of a virtual-time trace. Spans form trees
// through parent links: a root span (parent 0) is opened at the API
// boundary (e.g. one LT_RPC call) and every layer underneath — host
// OS crossings, NIC pipeline stages, fabric occupancy, ring polling —
// hangs its own spans off it, so the end-to-end latency decomposes
// into labelled intervals without any hand-rolled timers.
//
// All methods are safe on a nil receiver; StartSpan returns nil
// whenever tracing is off, so call sites never branch.
type Span struct {
	reg    *Registry
	id     uint64
	parent uint64
	name   string
	node   int
	start  Time
	end    Time
	open   bool
}

// StartSpan opens a span at virtual time `at` under the given parent
// (nil parent makes a root). Returns nil — and records nothing — when
// the registry is nil or tracing is disabled.
func (r *Registry) StartSpan(at Time, name string, parent *Span) *Span {
	if r == nil || !*r.tracing {
		return nil
	}
	s := &Span{
		reg:   r,
		id:    r.ids.id(),
		name:  name,
		node:  r.node,
		start: at,
		open:  true,
	}
	if parent != nil {
		s.parent = parent.id
	}
	r.spans = append(r.spans, s)
	return s
}

// AddSpan records an already-finished interval [start, end] in one
// call — the common case for event-driven layers (the NIC model
// computes its whole pipeline timeline up front, so there is no
// open/close pair to straddle).
func (r *Registry) AddSpan(start, end Time, name string, parent *Span) *Span {
	s := r.StartSpan(start, name, parent)
	s.Done(end)
	return s
}

// Done closes the span at virtual time `at`. Safe on a nil receiver;
// closing twice keeps the first end.
func (s *Span) Done(at Time) {
	if s == nil || !s.open {
		return
	}
	s.end = at
	s.open = false
}

// SpanView is the immutable, exported form of a closed span.
type SpanView struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  Time   `json:"start_ns"`
	End    Time   `json:"end_ns"`
}

// Dur returns the span's duration.
func (v SpanView) Dur() Time { return v.End - v.Start }

func (s *Span) view() SpanView {
	return SpanView{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Node:   s.node,
		Start:  s.start,
		End:    s.end,
	}
}

// SumByName returns, for each span name, the total duration across
// the given spans. The usual way to turn a trace into a breakdown
// table.
func SumByName(spans []SpanView) map[string]Time {
	out := make(map[string]Time)
	for _, v := range spans {
		out[v.Name] += v.Dur()
	}
	return out
}

// CountByName returns, for each span name, how many spans carry it.
func CountByName(spans []SpanView) map[string]int {
	out := make(map[string]int)
	for _, v := range spans {
		out[v.Name]++
	}
	return out
}
