// Command litebench regenerates the tables and figures of the LITE
// paper's evaluation (Tsai & Zhang, SOSP'17) on the simulated
// substrate. Run with -list to enumerate experiments, with experiment
// ids to run a subset, or with -all for everything. -metrics appends
// each experiment's observability snapshot; -json additionally writes
// every table (and snapshot) as a machine-readable report.
//
// Usage:
//
//	litebench -list
//	litebench fig4 fig6 fig10
//	litebench -all
//	litebench -metrics -json BENCH_litebench.json trace breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lite/internal/bench"
	"lite/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	all := flag.Bool("all", false, "run every experiment")
	metrics := flag.Bool("metrics", false, "collect and print observability metrics per experiment")
	jsonPath := flag.String("json", "", "write a machine-readable report to this file")
	comparePath := flag.String("compare", "", "re-run the experiments in this report and fail on virtual-time drift")
	flag.Parse()

	if *comparePath != "" {
		os.Exit(compareReport(*comparePath))
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	ids := flag.Args()
	if *all {
		ids = nil
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: litebench [-list|-all] [-metrics] [-json file] [experiment ids...]")
		os.Exit(2)
	}
	if *metrics {
		bench.SetObsEnabled(true)
	}
	var results []bench.JSONResult
	failed := false
	for _, id := range ids {
		start := time.Now()
		tab, err := bench.Run(id)
		wall := time.Since(start)
		if *jsonPath != "" {
			results = append(results, bench.NewJSONResult(id, tab, wall, err))
		}
		if err != nil {
			// Experiments with self-gates return their table alongside
			// the error so the failing numbers are visible in context.
			if tab != nil {
				fmt.Print(tab.Format())
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Print(tab.Format())
		if *metrics && tab.Metrics != nil {
			printMetrics(tab.Metrics)
		}
		// Virtual time is the measurement (how long the simulated
		// cluster ran); wall time is merely what the simulation cost.
		fmt.Printf("[%s simulated %v of virtual time in %v of wall time]\n\n",
			id, tab.Virtual, wall.Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := bench.WriteJSON(*jsonPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// compareEPSBand is the allowed relative deviation for the recorded
// events/sec figures, the only host-dependent numbers in the feed.
// The band is generous because the figure moves with the recording
// host, but a fresh run far below it means the simulator itself got
// slower.
const compareEPSBand = 0.25

// compareReport re-runs every experiment recorded in the committed
// report and compares the virtual durations and event counts — the
// bench guard that catches accidental performance regressions (or
// unrecorded improvements) in the simulated timeline. The simulation is
// deterministic, so both must match the committed figures exactly.
// Returns a process exit code.
func compareReport(path string) int {
	rep, err := bench.ReadJSON(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-guard: %v\n", err)
		return 1
	}
	code := 0
	for _, r := range rep.Results {
		if r.Error != "" {
			continue
		}
		tab, err := bench.Run(r.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: %v\n", r.ID, err)
			code = 1
			continue
		}
		if got := int64(tab.Virtual); got != r.VirtualNs {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: virtual time drifted %+dns: committed %dns, fresh run %dns (re-run 'make bench-smoke' if the change is intentional)\n",
				r.ID, got-r.VirtualNs, r.VirtualNs, got)
			code = 1
			continue
		}
		if r.Events == 0 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: committed entry records no event count (re-record it with 'make bench-smoke')\n", r.ID)
			code = 1
			continue
		}
		if tab.Events != r.Events {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: event count changed: committed %d, fresh run %d (re-run 'make bench-smoke' if the change is intentional)\n",
				r.ID, r.Events, tab.Events)
			code = 1
			continue
		}
		// Events/sec is the one host-dependent figure in the feed:
		// compare within a band instead of exactly. Falling out the
		// bottom is a simulator performance regression and fails;
		// overshooting the top just means the committed figure is stale
		// (or the host fast), which is worth a note, not a failure.
		if r.EventsPerSec > 0 && tab.EventsPerSec > 0 {
			rel := tab.EventsPerSec / r.EventsPerSec
			if rel < 1-compareEPSBand {
				fmt.Fprintf(os.Stderr, "bench-guard: %s: events/sec regressed to %.0f, committed %.0f (%.0f%% of committed, floor is %.0f%%)\n",
					r.ID, tab.EventsPerSec, r.EventsPerSec, rel*100, (1-compareEPSBand)*100)
				code = 1
				continue
			}
			if rel > 1+compareEPSBand {
				fmt.Printf("bench-guard: %s: note: events/sec is %.0f, %.2fx the committed %.0f — consider refreshing the feed\n",
					r.ID, tab.EventsPerSec, rel, r.EventsPerSec)
			}
		}
		fmt.Printf("bench-guard: %-10s ok (%dns, %d events)\n", r.ID, r.VirtualNs, r.Events)
	}
	return code
}

// printMetrics dumps a snapshot as '%'-prefixed lines, so tooling
// (and the Makefile's obs-guard) can strip them from table output.
func printMetrics(s *obs.Snapshot) {
	for _, name := range s.CounterNames() {
		fmt.Printf("%% counter %-28s %d\n", name, s.Counters[name])
	}
	for _, name := range s.HistNames() {
		h := s.Hists[name]
		fmt.Printf("%% hist    %-28s n=%d mean=%v p50=%v p99=%v max=%v\n",
			name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
}
