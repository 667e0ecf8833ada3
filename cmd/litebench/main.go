// Command litebench regenerates the tables and figures of the LITE
// paper's evaluation (Tsai & Zhang, SOSP'17) on the simulated
// substrate. Run with -list to enumerate experiments, with experiment
// ids to run a subset, or with -all for everything. -metrics appends
// each experiment's observability snapshot; -json additionally records
// every table (and snapshot) in a machine-readable report, replacing
// the entries of the experiments run and keeping every other entry of
// an existing report byte for byte.
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
	jsonPath := flag.String("json", "", "record the experiments run in this machine-readable report, keeping its other entries")
	comparePath := flag.String("compare", "", "re-run the experiments in this report and fail on virtual-time drift")
	flag.Parse()

	if *comparePath != "" {
		os.Exit(compareReport(*comparePath, bench.Run))
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
		if err := bench.UpdateJSON(*jsonPath, results); err != nil {
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

// compareEPSRetimes is how many more runs an entry whose events/sec
// fell below the band gets before it fails; the best run is judged. A
// shared host stalls one run now and then, a slower simulator every run.
const compareEPSRetimes = 2

// compareReport re-runs every experiment recorded in the committed
// report (with run, bench.Run outside tests) and compares the virtual
// durations and event counts — the bench guard that catches accidental
// performance regressions (or unrecorded improvements) in the simulated
// timeline. The simulation is deterministic, so both must match the
// committed figures exactly. Returns a process exit code.
func compareReport(path string, run func(id string) (*bench.Table, error)) int {
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
		tab, err := run(r.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: %v\n", r.ID, err)
			code = 1
			continue
		}
		if got := int64(tab.Virtual); got != r.VirtualNs {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: virtual time drifted %+dns: committed %dns, fresh run %dns (if the change is intentional, re-record it: %s)\n",
				r.ID, got-r.VirtualNs, r.VirtualNs, got, rerecord(path, r.ID))
			code = 1
			continue
		}
		if r.Events == 0 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: committed entry records no event count (re-record it: %s)\n", r.ID, rerecord(path, r.ID))
			code = 1
			continue
		}
		if tab.Events != r.Events {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: event count changed: committed %d, fresh run %d (if the change is intentional, re-record it: %s)\n",
				r.ID, r.Events, tab.Events, rerecord(path, r.ID))
			code = 1
			continue
		}
		// Events/sec is the one host-dependent figure in the feed:
		// compare within a band instead of exactly, judging the best of
		// up to 1+compareEPSRetimes runs (the re-runs are timed only).
		// Falling out the bottom is a simulator performance regression
		// and fails; overshooting the top just means the committed figure
		// is stale (or the host fast), which is worth a note, not a
		// failure.
		if r.EventsPerSec > 0 && tab.EventsPerSec > 0 {
			eps, runs := tab.EventsPerSec, 1
			for ; runs <= compareEPSRetimes && eps < (1-compareEPSBand)*r.EventsPerSec; runs++ {
				again, err := run(r.ID)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench-guard: %s: re-timing run: %v\n", r.ID, err)
					break
				}
				eps = max(eps, again.EventsPerSec)
			}
			rel := eps / r.EventsPerSec
			if rel < 1-compareEPSBand {
				fmt.Fprintf(os.Stderr, "bench-guard: %s: events/sec regressed to %.0f (best of %d runs), committed %.0f (%.0f%% of committed, floor is %.0f%%)\n",
					r.ID, eps, runs, r.EventsPerSec, rel*100, (1-compareEPSBand)*100)
				code = 1
				continue
			}
			if runs > 1 {
				fmt.Printf("bench-guard: %s: note: events/sec %.0f, below the floor, was re-timed; best of %d runs is %.0f\n",
					r.ID, tab.EventsPerSec, runs, eps)
			}
			if rel > 1+compareEPSBand {
				fmt.Printf("bench-guard: %s: note: events/sec is %.0f, %.2fx the committed %.0f — consider refreshing the feed\n",
					r.ID, eps, rel, r.EventsPerSec)
			}
		}
		fmt.Printf("bench-guard: %-10s ok (%dns, %d events)\n", r.ID, r.VirtualNs, r.Events)
	}
	return code
}

// rerecord is the command that re-records one entry of the report at
// path, leaving the others as they are.
func rerecord(path, id string) string {
	return fmt.Sprintf("go run ./cmd/litebench -metrics -json %s %s", path, id)
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
