package bench

import (
	"fmt"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/obs"
	"lite/internal/simtime"
)

func init() {
	register("drain", "Elasticity: kvstore tail latency during live shard migration vs crash-failover", drainExp)
}

// The drain experiment puts the elasticity claim on the open-loop tail
// harness: a two-shard kvstore serves a Poisson put/get mix while one
// shard leaves node 1 — either gracefully (DrainShard live-migrates it
// to a fresh node, in-flight calls complete, stale traffic bounces to
// the new home) or the way the pre-migration system did it (the node
// crashes; clients discover the death through heartbeats, the keys are
// lost and re-created on the survivors). Latency is windowed around
// the event: live migration must keep every call succeeding with p99
// within a small factor of steady state, while crash-failover eats a
// detection-timeout outage and a wave of failed calls.
const (
	drainNodes   = 5 // 0, 4 clients; 1, 2 shards; 3 migration target
	drainKeys    = 64
	drainRate    = 0.1 // per client node, req/us
	drainReqs    = 400 // per client node
	drainSeed    = 77
	drainStart   = 300 * time.Microsecond
	drainEventAt = 1500 * time.Microsecond
	drainWindow  = 1000 * time.Microsecond // "during" window after the event
)

// drainWin is one window of requests around the event, by issue time:
// steady before it, during the drainWindow after it, and after that.
type drainWin struct {
	issued, ok int
	hist       obs.Histogram // latency of the successful ones
}

var drainWinNames = [3]string{"steady", "during", "after"}

func drainWinOf(at simtime.Time) int {
	switch ev := simtime.Time(drainEventAt); {
	case at < ev:
		return 0
	case at < ev+simtime.Time(drainWindow):
		return 1
	}
	return 2
}

// runDrain drives the workload once. With migrate true the shard at
// node 1 live-migrates to node 3 at drainEventAt; otherwise node 1
// crashes there.
func runDrain(migrate bool) (*[3]drainWin, error) {
	opts := lite.DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	cls, dep, err := newLITEOpts(drainNodes, opts)
	if err != nil {
		return nil, err
	}
	s, err := kvstore.Start(cls, dep, []int{1, 2}, 2)
	if err != nil {
		return nil, err
	}
	key := func(k uint64) string { return fmt.Sprintf("key-%02d", k) }
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("value-%02d", k)) }

	var wins [3]drainWin
	for ci, node := range []int{0, 4} {
		sched := load.Poisson(drainSeed+uint64(ci), drainRate, drainReqs, simtime.Time(drainStart))
		z := detrand.NewZipf(drainSeed+100*uint64(ci), 1.1, drainKeys)
		ops := make([]uint64, len(sched))
		for k := range ops {
			ops[k] = z.Next()
		}
		k := s.NewClient(node)
		// Preload this client's half of the keyspace before the
		// schedule opens, so steady-state gets never miss.
		cls.GoOn(node, "drain-preload", func(p *simtime.Proc) {
			for i := uint64(ci); i < drainKeys; i += 2 {
				if err := k.Put(p, key(i), val(i)); err != nil {
					return
				}
			}
		})
		load.Run(cls, node, sched, func(q *simtime.Proc, idx int) load.Status {
			t0 := q.Now()
			kk := ops[idx]
			var err error
			if idx%2 == 0 {
				err = k.Put(q, key(kk), val(kk))
			} else {
				_, err = k.Get(q, key(kk))
			}
			w := &wins[drainWinOf(t0)]
			w.issued++
			if err == nil {
				w.ok++
				w.hist.Record(q.Now() - t0)
			}
			return statusOf(err)
		})
	}

	if migrate {
		cls.GoOn(1, "drain-driver", func(p *simtime.Proc) {
			p.SleepUntil(simtime.Time(drainEventAt))
			_ = s.DrainShard(p, 1, 3)
		})
	} else {
		cls.GoOn(0, "crash-driver", func(p *simtime.Proc) {
			p.SleepUntil(simtime.Time(drainEventAt))
			cls.CrashNode(p, 1)
		})
	}
	if err := cls.Run(); err != nil {
		return nil, err
	}
	return &wins, nil
}

func drainExp() (*Table, error) {
	t := &Table{
		ID:     "drain",
		Title:  "Put/get tail latency around a shard leaving node 1: live migration (DrainShard) vs crash-failover",
		Header: []string{"Mode", "Window", "Issued", "OK", "Failed", "p50 (us)", "p99 (us)"},
	}
	for _, migrate := range []bool{true, false} {
		wins, err := runDrain(migrate)
		if err != nil {
			return nil, err
		}
		mode := "crash-failover"
		if migrate {
			mode = "live-migration"
		}
		for k, w := range wins {
			t.AddRow(mode, drainWinNames[k], fmt.Sprintf("%d", w.issued), fmt.Sprintf("%d", w.ok),
				fmt.Sprintf("%d", w.issued-w.ok), us(w.hist.Quantile(0.5)), us(w.hist.Quantile(0.99)))
		}
		steady, during := wins[0].hist.Quantile(0.99), &wins[1]
		ratio := 0.0
		if steady > 0 {
			ratio = float64(during.hist.Quantile(0.99)) / float64(steady)
		}
		t.Note("%s: during-window p99 is %.2fx steady, %d of %d calls failed in the window",
			mode, ratio, during.issued-during.ok, during.issued)
	}
	t.Note("live migration keeps every call succeeding (held calls complete, stale traffic bounces to the new home); crash-failover fails calls until heartbeats declare the node dead and keys are re-created")
	return t, nil
}
