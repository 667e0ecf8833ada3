package main

import (
	"lite/internal/params"
)

// runSeconds is BENCHMARK.json's run_seconds: the op counts below are
// sized so that base + hi + ladder measure for about this long on the
// reference machine. A different --seconds scales every count by
// seconds / runSeconds; nothing else depends on the host clock, so
// the virtual-clock metrics are a pure function of (seed, seconds).
const runSeconds = 12

const (
	ladderRungs = 8   // coarse rungs
	ladderStep  = 1.2 // between coarse rungs
	ladderFine  = 4   // grid points per coarse step
	// setupRepeats is how many times a run sets its cluster up; setup_s
	// is the median, and the last cluster is the one measured.
	setupRepeats = 3
)

// spec is one workload's frozen shape: its p99 limit, its two fixed
// operating rates, its ladder and its op counts. rateBase and rateHi
// are 0.4x and 0.8x of the slo_rate_ops_per_us measured on the commit
// that landed the benchmark, rounded to two digits; rung0 is that
// rate / 1.2^3.5, so the landing commit sits mid-ladder and both a 70 %
// gain and a 45 % loss stay bracketed. They are constants from then on:
// a later commit is measured at the same absolute rates.
type spec struct {
	name string
	why  string
	// limitNs is the p99 limit that defines slo_rate_ops_per_us.
	limitNs  int64
	rateBase float64 // ops/us
	rateHi   float64
	rung0    float64
	baseOps  int // also the hi phase's op count
	rungOps  int
	warmOps  int
	// tracedOps is how many base ops the traced run keeps.
	tracedOps int
	build     func(cfg *params.Config) (workload, error)
}

// ops scales a frozen op count, keeping enough samples for a p99.
func (sp *spec) ops(n int, scale float64) int {
	if n = int(float64(n) * scale); n < 200 {
		n = 200
	}
	return n
}

var specs = []*spec{
	{
		name:      "rpc-small",
		why:       "8 B LT_RPC echo from user level: per-call cost is everything (hostos crossings, lite check/post/wait, rnic inline path); kvstore, DMA and link bandwidth idle",
		limitNs:   20_000,
		rateBase:  2.1,
		rateHi:    4.3,
		rung0:     2.8,
		baseOps:   100_000,
		rungOps:   40_000,
		warmOps:   2_000,
		tracedOps: 20_000,
		build:     buildRPCSmall,
	},
	{
		name:      "mem-mixed",
		why:       "LT_read/LT_write of 64 B to 64 KB over 1024 Zipf-chosen LMRs: lite handle lookup, rnic DMA and fabric serialisation work; no RPC ring, server CPU or admission",
		limitNs:   150_000,
		rateBase:  0.90,
		rateHi:    1.8,
		rung0:     1.2,
		baseOps:   100_000,
		rungOps:   40_000,
		warmOps:   2_000,
		tracedOps: 20_000,
		build:     buildMemMixed,
	},
	{
		name:      "kv-direct",
		why:       "90 % one-sided GetDirect, 10 % PutOnce on a Zipf 1.1 keyspace: responder-NIC rx/atomic pipeline and the seqlock index work; server CPU and hostos nearly idle",
		limitNs:   25_000,
		rateBase:  0.54,
		rateHi:    1.1,
		rung0:     0.72,
		baseOps:   100_000,
		rungOps:   40_000,
		warmOps:   2_000,
		tracedOps: 20_000,
		build:     buildKVDirect,
	},
	{
		name:      "fleet",
		why:       "500-node 5x-oversubscribed Clos, 8 classic kvstore servers, fair admission, three tenant classes, heartbeats: simtime, Clos queues, lite admission and tenant dominate",
		limitNs:   250_000,
		rateBase:  2.3,
		rateHi:    4.6,
		rung0:     3.1,
		baseOps:   100_000,
		rungOps:   10_000,
		warmOps:   4_000,
		tracedOps: 5_000,
		build:     buildFleet,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
