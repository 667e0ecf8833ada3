// The rebalance experiment closes the ROADMAP's "autoscaling policy"
// gap minimally: a load signal drives PR 6's DrainShard. Twelve shards
// of a Zipf-skewed keyspace start packed three-per-node on four
// servers; 200 clients hammer the keyspace; a greedy rebalancer
// samples per-node goodput each window and moves the hottest shard
// from the most-loaded node onto the least-loaded of a dozen
// server-capable nodes until the per-node goodput spread falls under
// its target — live, mid-run, with zero failed client calls. Run
// twice per seed; the runs must agree bit-for-bit.
package bench

import (
	"fmt"
	"math"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("rebalance", "Live rebalancing: load-driven DrainShard spreads a Zipf keyspace across a dozen servers", runRebalance)
}

const (
	rebNodes    = 500
	rebShards   = 12
	rebPool     = 16 // server-capable nodes 1..16; manager on 0
	rebClients  = 200
	rebKeys     = 4096
	rebZipfS    = 1.1
	rebOps      = 400 // per client
	rebGap      = 50 * time.Microsecond
	rebWindow   = 500 * time.Microsecond
	rebSeed     = 1337
	rebMinMoves = 4
	// rebStopSpread is the greedy loop's target (with hysteresis under
	// the 2x gate): stop moving once max/min per-serving-node goodput
	// since the last move is below this.
	rebStopSpread = 1.9
	rebGateSpread = 2.0
	// rebMoveCutoff stops new moves after this fraction of the client
	// ops, leaving the tail of the run to measure the settled placement
	// (the gated spread is the aggregate since the last move).
	rebMoveCutoff = 0.75
	// rebDecideFloor is the minimum aggregated sample before the greedy
	// trusts the spread enough to act on it.
	rebDecideFloor = 1000
)

// rebWeights are the per-shard traffic masses the rank ranges target.
// Near-uniform by design: the greedy's destinations are always the
// least-loaded pool node, which is a zero-load spare while any remain,
// so shards unpack toward one-per-node and the best reachable spread
// is max/min shard weight. The band is tight (9.2/7.5 = 1.23 designed)
// because measured server load is not the designed mass: same-size Put
// overwrites bump the value version in place, every version bump
// invalidates the one-sided Get cache of each client holding that key,
// and the forced re-resolves amplify hot shards' server ops ~1.3x over
// their traffic share. 1.23 designed stays under the 2x gate even with
// that amplification. The imbalance the rebalancer must fix comes from
// the initial packing (4/3/3/2 shards on four nodes, ~34% of the
// traffic on the first), not from wildly unequal shards.
var rebWeights = [rebShards]float64{0.092, 0.09, 0.088, 0.086, 0.085, 0.084, 0.083, 0.082, 0.08, 0.078, 0.077, 0.075}

// rebHomeOf is the initial packing: shards 0-3 on node 1, 4-6 on node
// 2, 7-9 on node 3, 10-11 on node 4.
func rebHomeOf(s int) int {
	switch {
	case s < 4:
		return 1
	case s < 7:
		return 2
	case s < 10:
		return 3
	default:
		return 4
	}
}

// rebShardOf maps a Zipf rank onto a shard via contiguous rank ranges
// hitting the rebWeights masses.
var rebBounds = rebComputeBounds()

// rebComputeBounds partitions ranks 0..rebKeys-1 into rebShards
// contiguous ranges hitting fixed target masses under the Zipf(s)
// popularity law. Pure arithmetic on constants: identical every run.
func rebComputeBounds() [rebShards + 1]int {
	weights := rebWeights
	mass := make([]float64, rebKeys)
	total := 0.0
	for k := 0; k < rebKeys; k++ {
		mass[k] = math.Pow(float64(k+1), -rebZipfS)
		total += mass[k]
	}
	var bounds [rebShards + 1]int
	acc, shard, want := 0.0, 0, weights[0]*total
	for k := 0; k < rebKeys && shard < rebShards-1; k++ {
		acc += mass[k]
		if acc >= want {
			shard++
			bounds[shard] = k + 1
			want += weights[shard] * total
		}
	}
	for s := shard + 1; s <= rebShards; s++ {
		bounds[s] = rebKeys
	}
	return bounds
}

func rebShardOf(rank uint64) int {
	for s := 1; s <= rebShards; s++ {
		if int(rank) < rebBounds[s] {
			return s - 1
		}
	}
	return rebShards - 1
}

// rebSpread totals the per-shard aggregates agg onto the pool nodes
// the shards call home, and returns each node's load and shard count
// with the max/min load over the nodes that serve a shard (+Inf if one
// of them served nothing).
func rebSpread(home []int, agg []int64) (load []int64, shards []int, spread float64) {
	load, shards = make([]int64, rebPool+1), make([]int, rebPool+1)
	for s, h := range home {
		load[h] += agg[s]
		shards[h]++
	}
	var maxLoad int64
	var minLoad int64 = math.MaxInt64
	for n := 1; n <= rebPool; n++ {
		if shards[n] > 0 {
			minLoad, maxLoad = min(minLoad, load[n]), max(maxLoad, load[n])
		}
	}
	if minLoad == 0 {
		return load, shards, math.Inf(1)
	}
	return load, shards, float64(maxLoad) / float64(minLoad)
}

type rebOutcome struct {
	events      int64
	virtual     simtime.Time
	ops         int64
	errs        int64
	moves       int64
	failedMoves int64
	serving     int64   // nodes serving at least one shard at the end
	spread      float64 // settled max/min per-serving-node goodput
}

func runRebalanceOnce() (rebOutcome, error) {
	cls, dep, err := newLITEOpts(rebNodes, hubOpts(rebPool))
	if err != nil {
		return rebOutcome{}, err
	}
	stores := make([]*kvstore.Store, rebShards)
	for s := 0; s < rebShards; s++ {
		st, err := kvstore.StartFn(cls, dep, []int{rebHomeOf(s)}, 4, lite.FirstUserFunc+s)
		if err != nil {
			return rebOutcome{}, err
		}
		stores[s] = st
	}

	var out rebOutcome
	for ci := 0; ci < rebClients; ci++ {
		node := rebPool + 1 + ci
		kcs := make([]*kvstore.Client, rebShards)
		for s := range kcs {
			kcs[s] = stores[s].NewClient(node)
		}
		z := detrand.NewZipf(rebSeed+uint64(ci), rebZipfS, rebKeys)
		cls.GoOn(node, "reb-client", func(p *simtime.Proc) {
			for j := 0; j < rebOps; j++ {
				rank := z.Next()
				kc := kcs[rebShardOf(rank)]
				key := fmt.Sprintf("k%04d", rank)
				var err error
				if j%3 == 0 {
					err = kc.Put(p, key, []byte("0123456789abcdef"))
				} else if _, err = kc.Get(p, key); err == kvstore.ErrNotFound {
					err = nil // a miss is a served lookup
				}
				out.ops++
				if err != nil {
					out.errs++
				}
				p.Sleep(simtime.Time(rebGap))
			}
		})
	}

	// The rebalancer: each window, sample per-shard goodput (delta of
	// ServedOps at the shard's current home) into an aggregate that
	// resets on every committed move; while the aggregated per-node
	// spread is past target, move the hottest shard off the hottest
	// multi-shard node onto the least-loaded pool node. Spares count
	// as zero-load targets, so hot shards spill onto fresh nodes and
	// cold shards stay packed. Deciding on the since-last-move
	// aggregate (not one noisy 500us window) keeps the greedy from
	// chasing sampling noise into extra moves, and the same aggregate
	// is what the final gate judges. All state is indexed by shard or
	// by the dense 1..rebPool node range — no map is ever ranged over,
	// so every decision replays identically.
	lastServed := make([]int64, rebShards)
	lastHome := make([]int, rebShards)
	for s := range lastHome {
		lastHome[s] = stores[s].ServerNodes()[0]
	}
	aggShard := make([]int64, rebShards)
	totalOps := int64(rebClients * rebOps)
	cls.GoOn(0, "reb-rebalancer", func(p *simtime.Proc) {
		for out.ops < totalOps {
			p.Sleep(simtime.Time(rebWindow))
			for s, st := range stores {
				home := st.ServerNodes()[0]
				if home != lastHome[s] {
					// The shard moved: the new incarnation's counter starts
					// at zero, so the old home's baseline would go negative.
					lastHome[s], lastServed[s] = home, 0
				}
				now := st.ServedOps(home)
				aggShard[s] += now - lastServed[s]
				lastServed[s] = now
			}
			var total int64
			for _, a := range aggShard {
				total += a
			}
			if total < rebDecideFloor {
				continue // aggregate too sparse to act on
			}
			load, shards, spread := rebSpread(lastHome, aggShard)
			// Only a node with shards to spare can shed one; moving a
			// lone shard just relocates the hotspot.
			hotNode := -1
			for n := 1; n <= rebPool; n++ {
				if shards[n] > 1 && (hotNode < 0 || load[n] > load[hotNode]) {
					hotNode = n
				}
			}
			if spread <= rebStopSpread || hotNode < 0 ||
				out.ops >= int64(rebMoveCutoff*float64(totalOps)) {
				continue
			}
			// Hottest shard on the hottest node, to the least-loaded
			// pool node (spares carry zero load).
			hotShard := -1
			for s := range stores {
				if lastHome[s] != hotNode {
					continue
				}
				if hotShard < 0 || aggShard[s] > aggShard[hotShard] {
					hotShard = s
				}
			}
			dst := -1
			var dstLoad int64 = math.MaxInt64
			for n := 1; n <= rebPool; n++ {
				if n != hotNode && load[n] < dstLoad {
					dst, dstLoad = n, load[n]
				}
			}
			if hotShard < 0 || dst < 0 {
				continue
			}
			st := stores[hotShard]
			var wg simtime.WaitGroup
			wg.Add(1)
			cls.GoOn(hotNode, "reb-drain", func(q *simtime.Proc) {
				defer wg.Done(q.Env())
				if err := st.DrainShard(q, hotNode, dst); err != nil {
					out.failedMoves++
				} else {
					out.moves++
				}
			})
			wg.Wait(p)
			// Placement changed: the settled-spread sample restarts.
			for s := range aggShard {
				aggShard[s] = 0
			}
		}
	})

	if err := cls.Run(); err != nil {
		return rebOutcome{}, err
	}
	home := make([]int, rebShards)
	for s, st := range stores {
		home[s] = st.ServerNodes()[0]
	}
	_, shards, spread := rebSpread(home, aggShard)
	for _, n := range shards {
		if n > 0 {
			out.serving++
		}
	}
	out.spread = spread
	out.events = cls.Env.Events()
	out.virtual = cls.Env.Now()
	return out, nil
}

func runRebalance() (*Table, error) {
	a, err := replay("rebalance", runRebalanceOnce)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "rebalance",
		Title:  "Live rebalancing: greedy move-hottest-shard under a Zipf keyspace, 12 shards over a 16-node pool",
		Header: []string{"metric", "value"},
	}
	tab.AddRow("ops", fmt.Sprintf("%d", a.ops))
	tab.AddRow("errs", fmt.Sprintf("%d", a.errs))
	tab.AddRow("moves", fmt.Sprintf("%d", a.moves))
	tab.AddRow("failed_moves", fmt.Sprintf("%d", a.failedMoves))
	tab.AddRow("serving_nodes", fmt.Sprintf("%d", a.serving))
	tab.AddRow("final_spread", fmt.Sprintf("%.2f", a.spread))
	tab.Note("%d clients, Zipf(s=%.1f) over %d keys in 12 rank-range shards (hottest ~9.2%% of traffic, coldest ~7.5%%), initial packing 4/3/3/2 shards on 4 nodes", rebClients, rebZipfS, rebKeys)
	tab.Note("rebalancer samples per-node goodput every %v and drains the hottest shard to the least-loaded pool node until spread <= %.1f", rebWindow, rebStopSpread)

	if a.errs != 0 {
		return tab, fmt.Errorf("rebalance: %d client calls failed during live moves", a.errs)
	}
	if a.failedMoves != 0 {
		return tab, fmt.Errorf("rebalance: %d shard moves failed", a.failedMoves)
	}
	if a.moves < rebMinMoves {
		return tab, fmt.Errorf("rebalance: only %d shards moved, want >= %d", a.moves, rebMinMoves)
	}
	if a.spread > rebGateSpread {
		return tab, fmt.Errorf("rebalance: final goodput spread %.2fx exceeds %.1fx", a.spread, rebGateSpread)
	}
	return tab, nil
}
