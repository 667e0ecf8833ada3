package main

import (
	"errors"
	"fmt"
	"io"

	"lite/internal/params"
)

// selfTestScale shortens every phase: the matrix needs direction and
// identity, not tight percentiles. A tenth on the 8-node workloads;
// half on the fleet, whose rungs must outlast its 250 us limit several
// times over before an overload can overrun it.
func selfTestScale(sp *spec) float64 {
	if sp.name == "fleet" {
		return 0.5
	}
	return 0.1
}

// perturbation is one cost-model constant changed in the params.Config
// copy handed to cluster.New, with what the change must and must not
// move. It is the README's layer -> end-to-end table, executed.
type perturbation struct {
	name   string
	apply  func(*params.Config)
	expect []expectation
}

type expectation struct {
	workload string
	metric   string // "" with identical: every virtual metric
	// check judges the perturbed value against the baseline's.
	check func(base, got float64) bool
	want  string
}

func identical(workload string) expectation {
	return expectation{workload: workload, want: "every virtual metric bit-identical"}
}

func lower(workload, metric string) expectation {
	return expectation{workload, metric, func(base, got float64) bool { return got < base }, "lower"}
}

var perturbations = []perturbation{
	{
		name:  "SyscallCrossing x2",
		apply: func(c *params.Config) { c.SyscallCrossing *= 2 },
		expect: []expectation{
			// A user-level LT_RPC has one entry crossing on its critical
			// path (the return rides the shared completion page).
			{"rpc-small", "op_p50_us", func(base, got float64) bool { return got-base >= 0.98*0.085 }, "higher by >= one 85 ns crossing"},
			identical("kv-direct"), // kernel-level clients never cross
		},
	},
	{
		name:  "AtomicProcess x2",
		apply: func(c *params.Config) { c.AtomicProcess *= 2 },
		expect: []expectation{
			lower("kv-direct", "slo_rate_ops_per_us"),
			identical("rpc-small"),
			identical("mem-mixed"),
		},
	},
	{
		name:  "LinkBandwidth /2",
		apply: func(c *params.Config) { c.LinkBandwidth /= 2 },
		expect: []expectation{
			{"mem-mixed", "op_p99_us", func(base, got float64) bool { return got >= 1.3*base }, "higher by >= 30 %"},
			{"rpc-small", "op_p50_us", func(base, got float64) bool { return got < 1.05*base }, "higher by < 5 %"},
		},
	},
	{
		name:  "NICProcess x1.5",
		apply: func(c *params.Config) { c.NICProcess = c.NICProcess * 3 / 2 },
		expect: []expectation{
			lower("rpc-small", "slo_rate_ops_per_us"),
			lower("mem-mixed", "slo_rate_ops_per_us"),
			lower("kv-direct", "slo_rate_ops_per_us"),
			lower("fleet", "slo_rate_ops_per_us"),
		},
	},
}

func selfTest(w io.Writer) error {
	short := func(sp *spec, cfg params.Config) (*result, error) {
		return measure(sp, cfg, 1, selfTestScale(sp), 1)
	}
	baseline := make(map[string]*result)
	for _, sp := range specs {
		r, err := short(sp, params.Default())
		if err != nil {
			return err
		}
		baseline[sp.name] = r
	}
	failures := 0
	for _, pt := range perturbations {
		for _, ex := range pt.expect {
			cfg := params.Default()
			pt.apply(&cfg)
			got, err := short(specByName(ex.workload), cfg)
			// A perturbation may push capacity off the ladder's low end. The
			// rate is then reported as 0, below every rung, which is an
			// answer to "did it get lower" and irrelevant to a latency.
			if err != nil && !(errors.Is(err, errBelowLadder) && ex.metric != "") {
				return fmt.Errorf("%s on %s: %w", pt.name, ex.workload, err)
			}
			base := baseline[ex.workload]
			ok, detail := true, ""
			if ex.metric == "" {
				for _, name := range virtualMetrics() {
					if a, b := base.metrics[name].Value, got.metrics[name].Value; a != b {
						ok, detail = false, fmt.Sprintf("%s moved %v -> %v", name, a, b)
						break
					}
				}
			} else {
				a, b := base.metrics[ex.metric].Value, got.metrics[ex.metric].Value
				ok, detail = ex.check(a, b), fmt.Sprintf("%s %v -> %v", ex.metric, a, b)
			}
			verdict := "ok  "
			if !ok {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "%s  %-20s %-10s want %-34s %s\n", verdict, pt.name, ex.workload, ex.want, detail)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d expectations failed", failures)
	}
	return nil
}
