package faults_test

import (
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

// Chaos for the one-sided kvstore read path: the server is crashed at
// its own fence announcements — mid-resize ("kvstore.resize.fence")
// and mid-DrainShard ("kvstore.drain.fence") — while a writer mutates
// and a reader traverses the index client-side. Invariants:
//
//   - zero stale reads: every successful GET returns a value that was
//     actually issued for that key (the value encodes the key, so a
//     torn or phantom read cannot parse as legal), and after the dust
//     settles every key reads back exactly its final value — a
//     delayed double execution of an older PUT would clobber it;
//   - readers observe the fence: the crash invalidates the published
//     index, readers fall back to RPC (or error while the node is
//     dark) and re-attach to the new incarnation — the one-sided path
//     must resume, proven by an exact DirectGets count on the final
//     sweep;
//   - the same seed replays the identical timeline bit for bit.

// onesidedFault pins one crash to one fence announcement.
type onesidedFault struct {
	name  string
	event string // fence announcement that triggers the crash
	nkeys int    // 100 forces bucket resizes; 40 stays under one table
	drain bool   // also run a DrainShard for the crash to land in
}

var onesidedFaults = []onesidedFault{
	{name: "server-at-resize-fence", event: "kvstore.resize.fence", nkeys: 100},
	{name: "server-at-drain-fence", event: "kvstore.drain.fence", nkeys: 40, drain: true},
}

// onesidedChaosOutcome captures one run for the same-seed comparison.
type onesidedChaosOutcome struct {
	end        simtime.Time
	log        string
	crashes    int
	restarts   int
	directGets int64
	fallbacks  int64
	attaches   int64
	finals     string
}

// runOneSidedChaos executes one fault case once. Topology: node 0 the
// manager, 1 the one-sided server (the victim), 2 the writer, 3 the
// reader, 4 the drain target.
func runOneSidedChaos(t *testing.T, seed uint64, fc onesidedFault) onesidedChaosOutcome {
	t.Helper()
	pcfg := params.Default()
	cls := clustertest.MustNew(&pcfg, 5, 1<<30)
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	dep, err := lite.Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	pl := faults.NewPlan(seed).CrashOnEvent(fc.event, 1, 2*time.Millisecond)
	inj := faults.Attach(cls, pl)

	s, err := kvstore.StartOneSided(cls, dep, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("ck%03d", i) }

	// everPut records every value issued for a key, at issue time, so a
	// concurrent reader may legally observe an in-flight PUT.
	everPut := make(map[string]map[string]bool, fc.nkeys)
	var logLines []string
	rec := func(p *simtime.Proc, format string, args ...any) {
		logLines = append(logLines, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(format, args...))
	}

	const chaosEnd = 6 * time.Millisecond
	writerDone, finalsIn := false, false

	cls.GoOn(2, "chaos-writer", func(p *simtime.Proc) {
		k := s.NewClient(2)
		for round := 0; p.Now() < chaosEnd; round++ {
			for i := 0; i < fc.nkeys; i++ {
				v := fmt.Sprintf("%s:r%d", key(i), round)
				if everPut[key(i)] == nil {
					everPut[key(i)] = make(map[string]bool)
				}
				everPut[key(i)][v] = true
				if err := k.Put(p, key(i), []byte(v)); err != nil {
					rec(p, "w put %s: %v", key(i), err)
				}
			}
			p.Sleep(80 * time.Microsecond)
		}
		// Wait for the membership view to settle, then write the final
		// values every key must hold at the end of the run.
		lc := dep.Instance(2).KernelClient()
		deadline := p.Now() + 30*time.Millisecond
		for lc.NodeDead(1) {
			if p.Now() > deadline {
				t.Error("writer: server 1 still dead after the plan ended")
				return
			}
			p.Sleep(200 * time.Microsecond)
		}
		for i := 0; i < fc.nkeys; i++ {
			v := key(i) + ":final"
			everPut[key(i)][v] = true
			if err := k.Put(p, key(i), []byte(v)); err != nil {
				t.Errorf("writer: final put %s: %v", key(i), err)
				return
			}
		}
		finalsIn = true
		writerDone = true
	})

	if fc.drain {
		cls.GoOn(0, "chaos-drainer", func(p *simtime.Proc) {
			p.SleepUntil(1 * time.Millisecond)
			if err := s.DrainShard(p, 1, 4); err != nil {
				rec(p, "drain 1->4: %v", err)
			} else {
				rec(p, "drain 1->4: ok")
			}
		})
	}

	var reader *kvstore.Client
	var finals []string
	cls.GoOn(3, "chaos-reader", func(p *simtime.Proc) {
		k := s.NewClient(3)
		reader = k
		for i := 0; !finalsIn; i++ {
			kk := key(i % fc.nkeys)
			v, err := k.GetDirect(p, kk)
			switch {
			case err == kvstore.ErrNotFound:
				// Legal: not yet written, or lost with the crashed
				// incarnation.
			case err != nil:
				rec(p, "r get %s: %v", kk, err)
			case !everPut[kk][string(v)]:
				t.Errorf("STALE/PHANTOM read: get %s = %q, never a live value", kk, v)
			}
			p.Sleep(25 * time.Microsecond)
		}
		// Final sweep: the one-sided path must have resumed against the
		// restarted incarnation — every GET below is resolved without
		// server CPU and sees exactly the final value.
		before := k.DirectGets
		for i := 0; i < fc.nkeys; i++ {
			v, err := k.GetDirect(p, key(i))
			if err != nil || string(v) != key(i)+":final" {
				t.Errorf("final get %s = %q, %v", key(i), v, err)
			}
			finals = append(finals, string(v))
		}
		if got := k.DirectGets - before; got != int64(fc.nkeys) {
			t.Errorf("final sweep resolved %d/%d GETs one-sided; path did not resume", got, fc.nkeys)
		}
	})

	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if !writerDone {
		t.Error("writer never finished")
	}
	if inj.Crashes != 1 {
		t.Errorf("injector fired %d crashes, want 1 (%s never announced?)", inj.Crashes, fc.event)
	}
	if inj.Restarts != 1 {
		t.Errorf("injector fired %d restarts, want 1", inj.Restarts)
	}
	if reader.Attaches < 2 {
		t.Errorf("reader attached %d times, want >= 2 (fence never observed)", reader.Attaches)
	}
	return onesidedChaosOutcome{
		end:        cls.Env.Now(),
		log:        strings.Join(logLines, "\n"),
		crashes:    inj.Crashes,
		restarts:   inj.Restarts,
		directGets: reader.DirectGets,
		fallbacks:  reader.DirectFallbacks,
		attaches:   reader.Attaches,
		finals:     strings.Join(finals, ","),
	}
}

// TestOneSidedChaos runs each pinned crash twice per seed: the reader
// must never see a stale or phantom value, the one-sided path must
// resume after the restart, and the two same-seed runs must agree.
func TestOneSidedChaos(t *testing.T) {
	for _, fc := range onesidedFaults {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			first := runOneSidedChaos(t, 0xA11CE, fc)
			if t.Failed() {
				t.Fatal("invariant violations above")
			}
			second := runOneSidedChaos(t, 0xA11CE, fc)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed, different timelines:\n--- first\n%+v\n--- second\n%+v", first, second)
			}
		})
	}
}
