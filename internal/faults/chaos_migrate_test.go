package faults_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lite/internal/clustertest"
	"lite/internal/faults"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// The chaos-during-migration suite: a live migration of an RPC
// function runs under client load while a fault plan crashes a node at
// an exact protocol phase (the migration announces every phase on the
// event bus, and Plan.CrashOnEvent pins the crash to it). Whatever the
// fault, three invariants must hold:
//
//   - no client call fails and none executes twice (the dedup windows
//     travel with the function, so a retry that crosses the migration
//     redirects into the cached reply instead of re-running). A crash
//     of the source is a crash of the server the calls reach, so the
//     RPC contract fails a call in flight to it at the crash, or sent
//     while it is down or declared dead in the caller's view, with
//     ErrNodeDead; such a call executes nowhere, and every other call
//     executes exactly once;
//   - ownership resolves to exactly one node, and every live
//     instance's view agrees (the manager's epoch-bumped handoff
//     record gates the commit, so a crash anywhere leaves either the
//     old owner or the new one — never both, never neither);
//   - the same seed replays the identical timeline, bit for bit.

const migChaosFn = lite.FirstUserFunc + 9

// migChaosSrc is the node the function migrates from.
const migChaosSrc = 1

// migFault pins one crash to one migration phase.
type migFault struct {
	name         string
	event        string // migration-phase announcement that triggers the crash
	victim       int
	restartAfter simtime.Time
	commits      bool // whether the migration is expected to commit
}

// migFaults covers every phase of the protocol. Crashes at drain and
// transfer kill the target itself — the migration must abort and the
// source must keep serving as if nothing happened. Crashes of a
// bystander at prepare, fence, and commit interleave a membership
// epoch bump (death declaration, handoff purge) with the protocol —
// the migration must ride through it and commit. A crash of the
// manager at commit holds the commit until the manager is back (its
// tables survive), and the migration commits; a crash of the source at
// commit aborts it, and the restarted source serves on.
var migFaults = []migFault{
	{name: "bystander-at-prepare", event: "lite.migrate.prepare", victim: 5, restartAfter: 2 * time.Millisecond, commits: true},
	{name: "bystander-at-fence", event: "lite.migrate.fence", victim: 5, commits: true},
	{name: "target-at-drain", event: "lite.migrate.drain", victim: 2, restartAfter: 3 * time.Millisecond, commits: false},
	{name: "target-at-transfer", event: "lite.migrate.transfer", victim: 2, commits: false},
	{name: "bystander-at-commit", event: "lite.migrate.commit", victim: 5, commits: true},
	{name: "source-at-commit", event: "lite.migrate.commit", victim: 1, restartAfter: 500 * time.Microsecond, commits: false},
	{name: "manager-at-commit", event: "lite.migrate.commit", victim: 0, restartAfter: 500 * time.Microsecond, commits: true},
}

// migChaosOutcome captures everything observable about one run for the
// same-seed bit-identical comparison.
type migChaosOutcome struct {
	end       simtime.Time
	epoch     uint64
	drainErr  string
	owner     string
	committed int64
	aborted   int64
	counts    map[uint64]int
	calls     string
	dropped   int64
}

// runMigrationChaos executes one fault case once. Topology: node 0 is
// the manager, 1 the migration source, 2 the target, 3 and 4 run
// clients, 5 is an idle bystander.
func runMigrationChaos(t *testing.T, seed uint64, fc migFault) migChaosOutcome {
	t.Helper()
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 6, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	pl := faults.NewPlan(seed).
		CrashOnEvent(fc.event, fc.victim, fc.restartAfter).
		// The loss window opens after the migration settles: seeds then
		// perturb the client timeline (drops, retries) without making
		// the protocol outcome itself a coin flip.
		LossDuring(0.002, 1200*time.Microsecond, 2200*time.Microsecond)
	inj := faults.Attach(cls, pl)

	counts := make(map[uint64]int)
	serve := func(inst *lite.Instance, node, workers int) {
		for w := 0; w < workers; w++ {
			cls.GoDaemonOn(node, "mig-chaos-server", func(p *simtime.Proc) {
				c := inst.KernelClient()
				call, err := c.RecvRPC(p, migChaosFn)
				for err == nil {
					counts[binary.LittleEndian.Uint64(call.Input)]++
					call, err = c.ReplyRecvRPC(p, call, call.Input, migChaosFn)
				}
			})
		}
	}
	src := dep.Instance(1)
	if err := src.RegisterRPC(migChaosFn); err != nil {
		t.Fatal(err)
	}
	serve(src, 1, 2)
	srcDown, srcCrashed := false, false
	cls.OnNodeDown(func(p *simtime.Proc, node int) {
		if node == migChaosSrc {
			srcDown, srcCrashed = true, true
		}
	})
	cls.OnNodeUp(func(p *simtime.Proc, node int) {
		if node == migChaosSrc {
			// The source's server threads died with it.
			srcDown = false
			serve(src, 1, 2)
		}
	})
	tgt := dep.Instance(2)
	tgt.OnAdoptFrom(migChaosFn, 1, func(p *simtime.Proc, from int, app []byte) error {
		if err := tgt.RegisterRPC(migChaosFn); err != nil {
			return err
		}
		serve(tgt, 2, 2)
		return nil
	})

	// Client load across the whole migration window, every call logged.
	logs := make([][]string, 2)
	failed := make(map[uint64]bool)
	for ci, node := range []int{3, 4} {
		ci, node := ci, node
		cls.GoOn(node, "mig-chaos-client", func(p *simtime.Proc) {
			c := dep.Instance(node).KernelClient()
			for k := 0; k < 110; k++ {
				id := uint64(node)<<32 | uint64(k)
				var req [8]byte
				binary.LittleEndian.PutUint64(req[:], id)
				t0 := p.Now()
				// Sent while the source was down or declared dead here, or
				// in flight when it crashed.
				srcLost := srcDown || c.NodeDead(migChaosSrc) || !srcCrashed
				out, err := c.RPCRetry(p, 1, migChaosFn, req[:], 64)
				if err != nil {
					if !srcCrashed || !srcLost || !errors.Is(err, lite.ErrNodeDead) {
						t.Errorf("%s: client %d call %d failed: %v", fc.name, node, k, err)
						return
					}
					failed[id] = true
					logs[ci] = append(logs[ci], fmt.Sprintf("c%d #%d at=%v failed", node, k, t0))
					p.Sleep(20 * time.Microsecond)
					continue
				}
				if !bytes.Equal(out, req[:]) {
					t.Errorf("%s: client %d call %d: bad echo", fc.name, node, k)
				}
				logs[ci] = append(logs[ci], fmt.Sprintf("c%d #%d at=%v lat=%v", node, k, t0, p.Now()-t0))
				p.Sleep(20 * time.Microsecond)
			}
		})
	}

	var drainErr error
	cls.GoOn(1, "mig-chaos-drain", func(p *simtime.Proc) {
		p.SleepUntil(400 * time.Microsecond)
		drainErr = src.Drain(p, migChaosFn, 2, nil)
	})

	// Verification after the dust settles: every live instance must
	// agree on the single owner, and the source must not be stuck in a
	// half-open migration.
	var owner string
	var epoch uint64
	cls.GoOn(0, "mig-chaos-verify", func(p *simtime.Proc) {
		p.SleepUntil(6 * time.Millisecond)
		mgr := dep.Instance(0).KernelClient()
		var views []string
		for n := 0; n < 6; n++ {
			if mgr.NodeDead(n) {
				continue
			}
			if to, ok := dep.Instance(n).MovedTo(1, migChaosFn); ok {
				views = append(views, fmt.Sprintf("%d:%d", n, to))
			} else {
				views = append(views, fmt.Sprintf("%d:src", n))
			}
		}
		owner = strings.Join(views, " ")
		epoch = mgr.MembershipEpoch()
		if src.MigratingFn(migChaosFn) {
			t.Errorf("%s: source still mid-migration after settling", fc.name)
		}
	})

	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}

	if fc.commits {
		if drainErr != nil {
			t.Errorf("%s: expected commit, Drain returned %v", fc.name, drainErr)
		}
		for _, v := range strings.Fields(owner) {
			if !strings.HasSuffix(v, ":2") {
				t.Errorf("%s: live view %s does not name the target as owner (views: %s)", fc.name, v, owner)
			}
		}
	} else {
		if drainErr == nil {
			t.Errorf("%s: expected abort, Drain succeeded", fc.name)
		}
		for _, v := range strings.Fields(owner) {
			if !strings.HasSuffix(v, ":src") {
				t.Errorf("%s: live view %s records a move after an abort (views: %s)", fc.name, v, owner)
			}
		}
	}
	for node := uint64(3); node <= 4; node++ {
		for k := uint64(0); k < 110; k++ {
			id, want := node<<32|k, 1
			if failed[id] {
				want = 0
			}
			if counts[id] != want {
				t.Errorf("%s: request %#x executed %d times, want %d", fc.name, id, counts[id], want)
			}
		}
	}
	if len(counts) != 220-len(failed) {
		t.Errorf("%s: %d distinct requests executed, want %d", fc.name, len(counts), 220-len(failed))
	}
	if inj.Crashes != 1 {
		t.Errorf("%s: injector fired %d crashes, want 1", fc.name, inj.Crashes)
	}

	errStr := ""
	if drainErr != nil {
		errStr = drainErr.Error()
	}
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return migChaosOutcome{
		end:       cls.Env.Now(),
		epoch:     epoch,
		drainErr:  errStr,
		owner:     owner,
		committed: cls.Obs.Total("lite.migrate.committed"),
		aborted:   cls.Obs.Total("lite.migrate.aborted"),
		counts:    counts,
		calls:     strings.Join(all, "\n"),
		dropped:   inj.Dropped(),
	}
}

// migChaosSeeds are the three seeds CI replays (make chaos).
var migChaosSeeds = []uint64{0xA11CE, 0x0DDBA11, 0xF00D5EED}

// TestMigrationChaos runs every phase-pinned fault under every seed,
// twice each: the invariants must hold and the two same-seed runs must
// be bit-identical.
func TestMigrationChaos(t *testing.T) {
	for _, seed := range migChaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			for _, fc := range migFaults {
				fc := fc
				t.Run(fc.name, func(t *testing.T) {
					first := runMigrationChaos(t, seed, fc)
					second := runMigrationChaos(t, seed, fc)
					if !reflect.DeepEqual(first, second) {
						t.Errorf("same seed, different timelines:\n--- first\n%+v\n--- second\n%+v", first, second)
					}
				})
			}
		})
	}
}
