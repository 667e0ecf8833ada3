package faults

import (
	"lite/internal/detrand"
	"lite/internal/simtime"
)

// CrashOnEvent schedules a crash of node at the first announcement of
// the named cluster event, optionally restarting it restartAfter later
// (zero means no restart).
func (pl *Plan) CrashOnEvent(event string, node int, restartAfter simtime.Time) *Plan {
	pl.Triggers = append(pl.Triggers, Trigger{Event: event, Node: node, RestartAfter: restartAfter})
	return pl
}

// RandomPlan derives a randomized chaos schedule from a seed: one
// crash/restart pair on a victim node (never node 0, which usually
// hosts the manager), two bidirectional link flaps among survivors,
// and one probabilistic-loss window. All choices come from the seed,
// so a given (seed, nodes, horizon) is one fixed schedule.
func RandomPlan(seed uint64, nodes int, horizon simtime.Time) *Plan {
	if nodes < 3 {
		panic("faults: RandomPlan needs at least 3 nodes")
	}
	pl := NewPlan(seed)
	rng := detrand.New(seed)
	victim := 1 + int(rng.Uint64()%uint64(nodes-1))
	crashAt := horizon/4 + simtime.Time(rng.Uint64()%uint64(horizon/4))
	restartAt := crashAt + horizon/8 + simtime.Time(rng.Uint64()%uint64(horizon/4))
	pl.CrashAt(victim, crashAt).RestartAt(victim, restartAt)
	for f := 0; f < 2; f++ {
		a := int(rng.Uint64() % uint64(nodes))
		b := int(rng.Uint64() % uint64(nodes))
		for b == a || a == victim || b == victim {
			a = int(rng.Uint64() % uint64(nodes))
			b = int(rng.Uint64() % uint64(nodes))
		}
		from := simtime.Time(rng.Uint64() % uint64(horizon/2))
		to := from + horizon/16 + simtime.Time(rng.Uint64()%uint64(horizon/8))
		pl.FlapBoth(a, b, from, to)
	}
	lossFrom := simtime.Time(rng.Uint64() % uint64(horizon/2))
	pl.LossDuring(0.005, lossFrom, lossFrom+horizon/8)
	return pl
}
