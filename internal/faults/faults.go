// Package faults provides seeded, deterministic fault injection for
// the simulated cluster: node crashes and restarts at chosen instants,
// link flaps, probabilistic message loss, and slow-node (degraded
// latency) injection. A Plan is a pure description; Attach installs an
// injector daemon that replays it against the cluster's fabric and
// crash hooks. The same plan and seed always produce the same
// simulated timeline, which is what makes chaos runs assertable.
package faults

import (
	"fmt"
	"sort"

	"lite/internal/cluster"
	"lite/internal/detrand"
	"lite/internal/simtime"
)

// EventKind enumerates injectable faults.
type EventKind int

const (
	// Crash fails Node at At (fabric port dark, software hooks run).
	Crash EventKind = iota
	// Restart brings Node back at At.
	Restart
	// LinkDown cuts the directed Src->Dst link at At.
	LinkDown
	// LinkUp restores the directed Src->Dst link at At.
	LinkUp
	// SlowNode injects Delay of extra one-way latency on every message
	// touching Node, from At on. Delay zero clears the injection.
	SlowNode
	// LossRate sets the probabilistic message-drop rate to Rate from
	// At on. Rate zero disables loss.
	LossRate
)

func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SlowNode:
		return "slow-node"
	case LossRate:
		return "loss-rate"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At       simtime.Time
	Kind     EventKind
	Node     int          // Crash, Restart, SlowNode
	Src, Dst int          // LinkDown, LinkUp
	Delay    simtime.Time // SlowNode
	Rate     float64      // LossRate
}

// Trigger is an event-driven fault: the node crashes the instant the
// named cluster event is announced (first occurrence only), which pins
// faults to exact protocol phases — "crash the source at the commit
// point" — instead of guessing wall-clock offsets.
type Trigger struct {
	Event string
	Node  int
	// RestartAfter, when nonzero, brings the node back this long after
	// the triggered crash.
	RestartAfter simtime.Time
}

// Plan is a deterministic fault schedule. Seed drives the injector's
// probabilistic-loss RNG; the event list is explicit.
type Plan struct {
	Seed     uint64
	Events   []Event
	Triggers []Trigger
}

// NewPlan returns an empty plan with the given loss-RNG seed.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// CrashAt schedules a node crash.
func (pl *Plan) CrashAt(node int, at simtime.Time) *Plan {
	pl.Events = append(pl.Events, Event{At: at, Kind: Crash, Node: node})
	return pl
}

// RestartAt schedules a node restart.
func (pl *Plan) RestartAt(node int, at simtime.Time) *Plan {
	pl.Events = append(pl.Events, Event{At: at, Kind: Restart, Node: node})
	return pl
}

// FlapLink cuts the directed src->dst link during [from, to).
func (pl *Plan) FlapLink(src, dst int, from, to simtime.Time) *Plan {
	pl.Events = append(pl.Events,
		Event{At: from, Kind: LinkDown, Src: src, Dst: dst},
		Event{At: to, Kind: LinkUp, Src: src, Dst: dst})
	return pl
}

// FlapBoth cuts both directions of the (a, b) pair during [from, to).
func (pl *Plan) FlapBoth(a, b int, from, to simtime.Time) *Plan {
	return pl.FlapLink(a, b, from, to).FlapLink(b, a, from, to)
}

// LossDuring drops each message with probability rate during [from, to).
func (pl *Plan) LossDuring(rate float64, from, to simtime.Time) *Plan {
	pl.Events = append(pl.Events,
		Event{At: from, Kind: LossRate, Rate: rate},
		Event{At: to, Kind: LossRate, Rate: 0})
	return pl
}

// sorted returns the events ordered by time (stable for equal times,
// so a plan's build order breaks ties deterministically).
func (pl *Plan) sorted() []Event {
	evs := append([]Event(nil), pl.Events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	return evs
}

// Injector replays a plan against a cluster.
type Injector struct {
	cls  *cluster.Cluster
	plan *Plan
	rng  *detrand.RNG
	rate float64

	// Counters for reporting what actually happened.
	Crashes  int
	Restarts int
	Flaps    int
}

// Attach installs the plan on the cluster: the fabric gets the seeded
// drop hook and a daemon replays the events in time order. The daemon
// does not keep the simulation alive; when the workload finishes,
// remaining events are moot.
func Attach(cls *cluster.Cluster, pl *Plan) *Injector {
	inj := &Injector{cls: cls, plan: pl, rng: detrand.New(pl.Seed)}
	// Drop accounting lives in the observability registry; make sure
	// one exists so Dropped() always has a counter to read.
	cls.EnableObs()
	cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
		return inj.rate > 0 && inj.rng.Float64() < inj.rate
	})
	if len(pl.Triggers) > 0 {
		fired := make([]bool, len(pl.Triggers))
		cls.OnEvent(func(p *simtime.Proc, name string) {
			for idx := range pl.Triggers {
				tr := pl.Triggers[idx]
				if fired[idx] || tr.Event != name {
					continue
				}
				fired[idx] = true
				inj.Crashes++
				inj.cls.CrashNode(p, tr.Node)
				if tr.RestartAfter > 0 {
					node, after := tr.Node, tr.RestartAfter
					cls.Env.GoDaemon("fault-trigger-restart", func(q *simtime.Proc) {
						q.Sleep(after)
						inj.Restarts++
						inj.cls.RestartNode(q, node)
					})
				}
			}
		})
	}
	events := pl.sorted()
	cls.Env.GoDaemon("fault-injector", func(p *simtime.Proc) {
		for _, ev := range events {
			if ev.At > p.Now() {
				p.Sleep(ev.At - p.Now())
			}
			inj.apply(p, ev)
		}
	})
	return inj
}

// Dropped returns the number of messages the loss hook has dropped.
func (inj *Injector) Dropped() int64 { return inj.cls.Obs.Total("fabric.dropped") }

func (inj *Injector) apply(p *simtime.Proc, ev Event) {
	switch ev.Kind {
	case Crash:
		inj.Crashes++
		inj.cls.CrashNode(p, ev.Node)
	case Restart:
		inj.Restarts++
		inj.cls.RestartNode(p, ev.Node)
	case LinkDown:
		inj.Flaps++
		inj.cls.Fab.SetLinkDown(ev.Src, ev.Dst)
	case LinkUp:
		inj.cls.Fab.SetLinkUp(ev.Src, ev.Dst)
	case SlowNode:
		inj.cls.Fab.SetNodeDelay(ev.Node, ev.Delay)
	case LossRate:
		inj.rate = ev.Rate
	}
}
