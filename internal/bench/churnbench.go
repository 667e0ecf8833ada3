// The churn experiment kills an entire leaf — 25 hosts at one instant
// — out of a 500-node Clos cluster and replays the aftermath: the
// manager's probers declare 25 deaths, every hub revokes its leased
// spare connections toward the corpses, a mid-flight shard migration
// sourced inside the dead leaf aborts and its handoff record is
// purged, and when the whole leaf restarts at one instant the
// connection pools re-lease and replenish back to target. Gates: zero
// double executions across the storm, zero lost acked writes, the
// in-flight drain aborted cleanly and a post-revival retry succeeds,
// every revoked lease is re-established within a bounded virtual time,
// and the whole run replays bit-identically (run twice, compared
// field by field).
package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("churn", "Churn storm: kill and revive a whole 25-host leaf under load", runChurn)
}

const (
	churnNodes     = 500
	churnLeafNodes = 25 // 20 leaves of 25 hosts
	churnSpines    = 5
	churnServers   = 8 // kvstore servers on 1..8 (leaf 0), manager on 0
	churnClients   = 200
	churnLeasePool = 1
	churnSeed      = 901

	// ctrFn is the double-execution ledger RPC; kvFn (FirstUserFunc+12)
	// and the throwaway store's churnMigFn stay clear of it.
	churnCtrFn = lite.FirstUserFunc
	churnMigFn = lite.FirstUserFunc + 1

	churnHeartbeat = 2 * time.Millisecond
	churnDrainAt   = 9500 * time.Microsecond // in flight when the leaf dies
	churnKillAt    = 10 * time.Millisecond
	churnReviveAt  = 25 * time.Millisecond
	churnDeadline  = 80 * time.Millisecond
	// churnHealBound caps the virtual time from the simultaneous
	// revival until every hub<->victim spare pool is back at target
	// (the re-lease latency gate). A hub replenishes its 25 victims'
	// slots serially at QPConnectTime each, plus the jittered start.
	churnHealBound = 25 * time.Millisecond
)

// churnVictims returns the nodes of the victim leaf (the last one:
// clients only, so the kvstore's acked data survives the blast).
func churnVictims() (lo, hi int) {
	return churnNodes - churnLeafNodes, churnNodes - 1
}

// churnOutcome is everything one run measures; two runs of the same
// seed must agree on every field.
type churnOutcome struct {
	events      int64
	virtual     simtime.Time
	opsOK       int64
	opsErr      int64
	victimOK    int64
	victimErr   int64
	acked       int64
	lost        int64
	doubles     int64
	revoked     int64
	replenished int64
	broadcasts  int64
	epochs      int64
	healNs      int64 // virtual ns from revival to full re-lease; -1 if never
	drainFlight bool  // the pre-kill drain was still running when the leaf died
	drainRetry  bool  // the post-revival drain retry succeeded
}

type churnAck struct {
	key, val string
}

func runChurnOnce() (churnOutcome, error) {
	cfg := closCfg(churnLeafNodes, churnSpines)
	vLo, vHi := churnVictims()
	// Hub mesh plus the victim-leaf shard host: QPs exist only on pairs
	// touching the manager, a kvstore server, or the throwaway store's
	// home inside the victim leaf.
	opts := hubOpts(churnServers)
	opts.MeshPeers = func(a, b int) bool {
		return a <= churnServers || b <= churnServers || a == vLo || b == vLo
	}
	opts.HeartbeatInterval = simtime.Time(churnHeartbeat)
	opts.ProbeStagger = true
	opts.QPLeasePool = churnLeasePool
	cls, dep, err := newLITECfg(&cfg, churnNodes, opts)
	if err != nil {
		return churnOutcome{}, err
	}

	servers := make([]int, churnServers)
	for i := range servers {
		servers[i] = i + 1
	}
	st, err := kvstore.Start(cls, dep, servers, 4)
	if err != nil {
		return churnOutcome{}, err
	}
	// Throwaway store: one shard homed inside the victim leaf, so the
	// storm catches a live migration mid-transfer.
	st2, err := kvstore.StartFn(cls, dep, []int{vLo}, 2, churnMigFn)
	if err != nil {
		return churnOutcome{}, err
	}

	// Double-execution ledger: a unique-id increment RPC on server 1.
	// The dedup windows must hold the line while the storm fails and
	// retries calls en masse.
	execSeen := make(map[uint64]int64)
	if err := dep.Instance(1).ServeRPC(churnCtrFn, 4, func(_ *simtime.Proc, c *lite.Call) []byte {
		execSeen[binary.LittleEndian.Uint64(c.Input)]++
		return []byte{1}
	}); err != nil {
		return churnOutcome{}, err
	}

	out := churnOutcome{healNs: -1}
	var acked []churnAck

	// client runs one node's op loop: alternating acked kvstore puts
	// and ledger increments, spaced so the storm lands mid-stream.
	// Victim-leaf clients keep issuing while their node is down (every
	// call fails fast with ErrNodeDead); their counts are recorded
	// separately — only survivor ops are gated on zero failures.
	client := func(node int, ops int, gap simtime.Time, victim bool) {
		kc := st.NewClient(node)
		lc := dep.Instance(node).KernelClient()
		cls.GoOn(node, "churn-client", func(p *simtime.Proc) {
			for j := 0; j < ops; j++ {
				var err error
				if j%2 == 0 {
					key := fmt.Sprintf("c%d-k%d", node, j)
					val := fmt.Sprintf("v%d-%d", node, j)
					if err = kc.Put(p, key, []byte(val)); err == nil {
						acked = append(acked, churnAck{key, val})
					}
				} else {
					var req [8]byte
					binary.LittleEndian.PutUint64(req[:], uint64(node)<<32|uint64(j))
					_, err = lc.RPCRetry(p, 1, churnCtrFn, req[:], 8)
				}
				switch {
				case victim && err != nil:
					out.victimErr++
				case victim:
					out.victimOK++
				case err != nil:
					out.opsErr++
				default:
					out.opsOK++
				}
				p.Sleep(gap)
			}
		})
	}
	for n := churnServers + 1; n <= churnServers+churnClients; n++ {
		client(n, 26, 2*time.Millisecond, false)
	}
	for v := vLo; v <= vHi; v++ {
		// Victim clients: puts acked before the blast must still be
		// readable afterwards.
		client(v, 60, 250*time.Microsecond, true)
	}

	// Seed the throwaway shard from a hub, then drain it out of the
	// victim leaf starting just before the kill: the blast lands
	// mid-transfer, the drain must abort cleanly (the source's proc
	// survives and sees the error), and the manager must purge the
	// stale handoff record so a post-revival retry can go through.
	var drain1Err error
	var drain1End simtime.Time
	cls.GoOn(8, "churn-mig-seed", func(p *simtime.Proc) {
		mc := st2.NewClient(8)
		for j := 0; j < 200; j++ {
			_ = mc.Put(p, fmt.Sprintf("m-k%d", j), []byte("m-val"))
		}
	})
	cls.GoOn(vLo, "churn-mig-driver", func(p *simtime.Proc) {
		p.SleepUntil(simtime.Time(churnDrainAt))
		drain1Err = st2.DrainShard(p, vLo, 8)
		drain1End = p.Now()
	})

	pl := faults.NewPlan(churnSeed)
	for v := vLo; v <= vHi; v++ {
		pl.CrashAt(v, simtime.Time(churnKillAt))
		pl.RestartAt(v, simtime.Time(churnReviveAt))
	}
	faults.Attach(cls, pl)

	// Monitor: wait out the re-lease heal (every hub<->victim spare
	// pool back at target), then retry the aborted drain and audit the
	// acked-write ledger. A regular proc, so it holds the run open.
	healed := func() bool {
		for h := 0; h <= churnServers; h++ {
			for v := vLo; v <= vHi; v++ {
				if dep.Instance(h).LeaseSpares(v) < churnLeasePool ||
					dep.Instance(v).LeaseSpares(h) < churnLeasePool {
					return false
				}
			}
		}
		return true
	}
	drain2OK := false
	cls.GoOn(0, "churn-monitor", func(p *simtime.Proc) {
		p.SleepUntil(simtime.Time(churnReviveAt))
		for !healed() {
			if p.Now() >= simtime.Time(churnDeadline) {
				return
			}
			p.Sleep(50 * time.Microsecond)
		}
		out.healNs = int64(p.Now() - simtime.Time(churnReviveAt))
		var wg simtime.WaitGroup
		wg.Add(1)
		cls.GoOn(vLo, "churn-drain-retry", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			drain2OK = st2.DrainShard(q, vLo, 8) == nil
		})
		wg.Wait(p)
		kc := st.NewClient(0)
		for _, a := range acked {
			got, err := kc.Get(p, a.key)
			if err != nil || string(got) != a.val {
				out.lost++
			}
		}
	})

	if err := cls.Run(); err != nil {
		return churnOutcome{}, err
	}
	for _, n := range execSeen {
		if n > 1 {
			out.doubles++
		}
	}
	out.acked = int64(len(acked))
	out.drainFlight = drain1Err != nil && drain1End >= simtime.Time(churnKillAt)
	out.drainRetry = drain2OK
	out.revoked = cls.Obs.Total("lite.lease.revoked")
	out.replenished = cls.Obs.Total("lite.lease.replenished")
	out.broadcasts = cls.Obs.Total("lite.membership.broadcasts")
	out.epochs = cls.Obs.Total("lite.membership.epochs")
	out.events = cls.Env.Events()
	out.virtual = cls.Env.Now()
	return out, nil
}

func runChurn() (*Table, error) {
	a, err := replay("churn", runChurnOnce)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "churn",
		Title:  "Churn storm: a 25-host leaf dies and revives at one instant under 225 clients",
		Header: []string{"metric", "value"},
	}
	tab.AddRow("ops_ok", fmt.Sprintf("%d", a.opsOK))
	tab.AddRow("ops_err", fmt.Sprintf("%d", a.opsErr))
	tab.AddRow("victim_ops_ok", fmt.Sprintf("%d", a.victimOK))
	tab.AddRow("victim_ops_err", fmt.Sprintf("%d", a.victimErr))
	tab.AddRow("acked_writes", fmt.Sprintf("%d", a.acked))
	tab.AddRow("lost_acked", fmt.Sprintf("%d", a.lost))
	tab.AddRow("double_execs", fmt.Sprintf("%d", a.doubles))
	tab.AddRow("leases_revoked", fmt.Sprintf("%d", a.revoked))
	tab.AddRow("leases_replenished", fmt.Sprintf("%d", a.replenished))
	tab.AddRow("membership_broadcasts", fmt.Sprintf("%d", a.broadcasts))
	tab.AddRow("membership_epochs", fmt.Sprintf("%d", a.epochs))
	tab.AddRow("heal_ms", fmt.Sprintf("%.3f", float64(a.healNs)/1e6))
	tab.AddRow("drain_in_flight", fmt.Sprintf("%v", a.drainFlight))
	tab.AddRow("drain_retry_ok", fmt.Sprintf("%v", a.drainRetry))
	tab.Note("topology: %d nodes over %d leaves x %d spines; leaf %d (nodes %d..%d) killed at %v, revived at %v",
		churnNodes, churnNodes/churnLeafNodes, churnSpines, (churnNodes-1)/churnLeafNodes,
		churnNodes-churnLeafNodes, churnNodes-1, churnKillAt, churnReviveAt)
	tab.Note("heal = virtual time from revival until every hub<->victim spare pool is back at target (%d per pair)", churnLeasePool)

	if a.doubles != 0 {
		return tab, fmt.Errorf("churn: %d unique requests executed more than once", a.doubles)
	}
	if a.lost != 0 {
		return tab, fmt.Errorf("churn: %d acked writes lost", a.lost)
	}
	if a.opsErr != 0 {
		return tab, fmt.Errorf("churn: %d survivor ops failed", a.opsErr)
	}
	if a.revoked == 0 || a.replenished == 0 {
		return tab, fmt.Errorf("churn: storm did not exercise the lease pool (revoked=%d replenished=%d)", a.revoked, a.replenished)
	}
	if a.healNs < 0 {
		return tab, fmt.Errorf("churn: revoked leases never fully re-established by the %v deadline", churnDeadline)
	}
	if a.healNs > int64(simtime.Time(churnHealBound)) {
		return tab, fmt.Errorf("churn: re-lease took %.3fms, bound %v", float64(a.healNs)/1e6, churnHealBound)
	}
	if !a.drainFlight {
		return tab, fmt.Errorf("churn: the shard drain was not in flight when the leaf died")
	}
	if !a.drainRetry {
		return tab, fmt.Errorf("churn: post-revival drain retry failed (stale handoff not purged?)")
	}
	return tab, nil
}
