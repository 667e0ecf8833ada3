package lite

import (
	"fmt"
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Pinned regressions for the two latent bugs the churn storm flushed
// out of the membership and lease layers.

// TestDeclareDeadDedup pins the declaration collapse: concurrent
// declarations of one node must cost one epoch bump and one death, and
// a second view change landing while the first broadcast is in flight
// must coalesce into the in-flight fan-out (dirty re-ship), not start
// its own. Before the fix a 25-host leaf failure cost O(deaths x
// nodes) correlated broadcasts, and overlapping fan-outs could pair a
// fresh epoch with a stale dead list.
func TestDeclareDeadDedup(t *testing.T) {
	cls, dep := testDep(t, 6)
	cls.EnableObs()
	mgr := dep.Instance(0)
	// First declarer: opens the broadcast fan-out, then yields inside
	// the first ctlMembership RPC.
	cls.GoOn(0, "declare-a", func(p *simtime.Proc) {
		mgr.declareDead(p, 3)
	})
	// Second declarer runs while that fan-out is in flight: the repeat
	// declaration of 3 must be a no-op, and the new death of 4 must
	// ride the in-flight broadcast as a dirty re-ship.
	cls.GoOn(0, "declare-b", func(p *simtime.Proc) {
		mgr.declareDead(p, 3)
		mgr.declareDead(p, 4)
		if !mgr.dep.memb.broadcasting {
			t.Error("second declarer did not overlap the first broadcast; the race this test pins did not occur")
		}
	})
	run(t, cls)

	if got := cls.Obs.Total("lite.membership.deaths"); got != 2 {
		t.Errorf("deaths = %d, want 2 (repeat declaration must not count)", got)
	}
	if got := cls.Obs.Total("lite.membership.epochs"); got != 2 {
		t.Errorf("epoch bumps = %d, want 2", got)
	}
	if got := cls.Obs.Total("lite.membership.broadcasts"); got != 2 {
		t.Errorf("broadcast laps = %d, want 2 (one fan-out plus one coalesced re-ship)", got)
	}
	// Every live instance converged on the final (epoch, dead) pair —
	// no one pinned a fresh epoch with a stale dead list.
	want := dep.memb.epoch
	for _, n := range []int{0, 1, 2, 5} {
		inst := dep.Instance(n)
		if inst.epoch != want {
			t.Errorf("node %d epoch = %d, want %d", n, inst.epoch, want)
		}
		if !inst.deadView[3] || !inst.deadView[4] {
			t.Errorf("node %d dead view missed a death: %v", n, inst.deadView)
		}
	}
}

// leaseStormOutcome captures one run for the same-seed comparison.
type leaseStormOutcome struct {
	end     simtime.Time
	revoked int64
	deaths  int64
	spares  string
}

// runLeaseStorm crashes three peers at once, then restarts them, and
// watches a survivor's connection pool through the cycle.
func runLeaseStorm(t *testing.T) leaseStormOutcome {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 8, 1<<30)
	opts := DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	opts.QPLeasePool = 2
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	cls.EnableObs()
	victims := []int{2, 3, 4}
	survivor := dep.Instance(1)

	cls.GoOn(0, "killer", func(p *simtime.Proc) {
		p.SleepUntil(200 * time.Microsecond)
		for _, v := range victims {
			cls.CrashNode(p, v)
		}
		p.SleepUntil(3 * time.Millisecond)
		for _, v := range victims {
			cls.RestartNode(p, v)
		}
	})

	var midSpares string
	cls.GoOn(1, "watch", func(p *simtime.Proc) {
		// After the declarations land, every spare toward the dead
		// leaf must be revoked — handing one out would put a dead
		// connection on a caller's critical path.
		p.SleepUntil(2 * time.Millisecond)
		var mid []string
		for _, v := range victims {
			mid = append(mid, fmt.Sprintf("%d:%d", v, survivor.LeaseSpares(v)))
			if survivor.LeaseSpares(v) != 0 {
				t.Errorf("spares toward dead node %d = %d, want 0 (revoked)", v, survivor.LeaseSpares(v))
			}
		}
		midSpares = fmt.Sprint(mid)
		// After the revival broadcast, the jittered replenisher must
		// rebuild every revoked slot — before the fix the pool stayed
		// empty until the next ConnectPeer paid the cold cost inline.
		p.SleepUntil(9 * time.Millisecond)
		for _, v := range victims {
			if got, want := survivor.LeaseSpares(v), survivor.lease.want; got != want {
				t.Errorf("spares toward revived node %d = %d, want %d (replenisher re-armed)", v, got, want)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cls.Obs.Total("lite.membership.deaths"); got != int64(len(victims)) {
		t.Errorf("deaths = %d, want %d", got, len(victims))
	}
	if got := cls.Obs.Total("lite.lease.revoked"); got < int64(len(victims)*opts.QPLeasePool) {
		t.Errorf("lite.lease.revoked = %d, want >= %d", got, len(victims)*opts.QPLeasePool)
	}
	return leaseStormOutcome{
		end:     cls.Env.Now(),
		revoked: cls.Obs.Total("lite.lease.revoked"),
		deaths:  cls.Obs.Total("lite.membership.deaths"),
		spares:  midSpares,
	}
}

// TestLeaseStormRevokeAndHeal runs the crash/restart cycle twice: the
// revoke-on-death and jittered-replenish behavior must hold and the
// two runs must replay identically (the jitter is deterministic).
func TestLeaseStormRevokeAndHeal(t *testing.T) {
	first := runLeaseStorm(t)
	second := runLeaseStorm(t)
	if first != second {
		t.Errorf("same configuration, different timelines:\n--- first\n%+v\n--- second\n%+v", first, second)
	}
}
