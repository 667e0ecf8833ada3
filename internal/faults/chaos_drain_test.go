package faults_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/clustertest"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Concurrent-drain admission regression. Two shards of one store share
// a function id; draining both onto the same target at once used to
// interleave their handoff records against a single fn-keyed adoption
// slot. The manager now admits one in-flight handoff per (fn, target)
// and bounces the loser with ErrMigrating. This test pins the race
// deterministically: the second drain launches off the first drain's
// fence announcement (guaranteed inside the first's prepare→commit
// window), and faults.CrashOnEvent kills a bystander at the first
// transfer so a death declaration — epoch bump plus handoff purge —
// interleaves with both handoffs. The purge of the dead bystander must
// not clobber either live record.

// drainRaceOutcome captures one run for the same-seed comparison.
type drainRaceOutcome struct {
	end       simtime.Time
	bounces   int
	committed int64
	aborted   int64
	owner     string
	values    string
}

func runConcurrentDrainRace(t *testing.T, seed uint64) drainRaceOutcome {
	t.Helper()
	// 0 manager, 1 and 2 shard homes, 3 the common target, 4 and 5
	// clients, 6 the bystander the fault plan kills.
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 7, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	pl := faults.NewPlan(seed).
		CrashOnEvent("lite.migrate.transfer", 6, 2*time.Millisecond)
	inj := faults.Attach(cls, pl)

	s, err := kvstore.Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 30
	key := func(k int) string { return fmt.Sprintf("race-%03d", k) }

	fenced := false
	cls.OnEvent(func(p *simtime.Proc, name string) {
		if name == "lite.migrate.fence" && !fenced {
			fenced = true
		}
	})

	// Clients mutate across the whole double-migration window; no call
	// may fail and every value must land.
	final := make(map[string]string)
	for ci, node := range []int{4, 5} {
		ci, node := ci, node
		cls.GoOn(node, "race-client", func(p *simtime.Proc) {
			k := s.NewClient(node)
			for gen := 0; gen < 6; gen++ {
				for i := ci; i < nkeys; i += 2 {
					v := fmt.Sprintf("v-%03d-g%d-c%d", i, gen, node)
					if err := k.Put(p, key(i), []byte(v)); err != nil {
						t.Errorf("client %d put %d gen %d: %v", node, i, gen, err)
						return
					}
					final[key(i)] = v
				}
				p.Sleep(150 * time.Microsecond)
			}
		})
	}

	cls.GoOn(1, "drain-a", func(p *simtime.Proc) {
		p.SleepUntil(400 * time.Microsecond)
		if err := s.DrainShard(p, 1, 3); err != nil {
			t.Errorf("drain 1->3: %v", err)
		}
	})
	bounces := 0
	cls.GoOn(2, "drain-b", func(p *simtime.Proc) {
		// Launch inside drain A's prepare→commit window: its fence
		// announcement is after prepare, and quiesce + per-key LMR
		// handover keep the handoff record alive long past our prepare.
		for !fenced {
			p.Sleep(5 * time.Microsecond)
		}
		for {
			err := s.DrainShard(p, 2, 3)
			if err == nil {
				return
			}
			if !errors.Is(err, lite.ErrMigrating) {
				t.Errorf("drain 2->3: want ErrMigrating bounce, got %v", err)
				return
			}
			bounces++
			p.Sleep(100 * time.Microsecond)
		}
	})

	var owner string
	var values []string
	cls.GoOn(0, "verify", func(p *simtime.Proc) {
		p.SleepUntil(6 * time.Millisecond)
		owner = fmt.Sprint(s.ServerNodes())
		k := s.NewClient(0)
		for i := 0; i < nkeys; i++ {
			got, err := k.Get(p, key(i))
			if err != nil {
				t.Errorf("final get %d: %v", i, err)
				continue
			}
			if want := final[key(i)]; string(got) != want {
				t.Errorf("final get %d = %q, want %q", i, got, want)
			}
			values = append(values, string(got))
		}
	})

	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if owner != "[3]" {
		t.Errorf("post-drain servers = %s, want [3]", owner)
	}
	if bounces < 1 {
		t.Error("second drain was never bounced; the race window did not overlap")
	}
	if got := cls.Obs.Total("lite.migrate.committed"); got != 2 {
		t.Errorf("lite.migrate.committed = %d, want 2", got)
	}
	if inj.Crashes != 1 {
		t.Errorf("injector fired %d crashes, want 1", inj.Crashes)
	}
	return drainRaceOutcome{
		end:       cls.Env.Now(),
		bounces:   bounces,
		committed: cls.Obs.Total("lite.migrate.committed"),
		aborted:   cls.Obs.Total("lite.migrate.aborted"),
		owner:     owner,
		values:    strings.Join(values, ","),
	}
}

// TestConcurrentDrainSameTarget runs the pinned race twice per seed:
// the loser must bounce cleanly, both shards must land on the target,
// and the two same-seed runs must agree bit for bit.
func TestConcurrentDrainSameTarget(t *testing.T) {
	for _, seed := range []uint64{0xBEEF, 0xCAFE} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			first := runConcurrentDrainRace(t, seed)
			second := runConcurrentDrainRace(t, seed)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed, different timelines:\n--- first\n%+v\n--- second\n%+v", first, second)
			}
		})
	}
}
