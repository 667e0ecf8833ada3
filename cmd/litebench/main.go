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
//	litebench -cpuprofile cpu.pprof -memprofile mem.pprof scale
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (host CPU and heap allocations over the whole run), for
// `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap allocation profile of the run to this file")
	flag.Parse()
	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *comparePath != "" {
		exit(compareReport(*comparePath, bench.Run))
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		exit(0)
	}
	ids := flag.Args()
	if *all {
		ids = nil
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: litebench [-list|-all] [-metrics] [-json file] [-cpuprofile file] [-memprofile file] [experiment ids...]")
		exit(2)
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
		exit(1)
	}
	exit(0)
}

// stopProfiles finishes the profiles startProfiles began.
var stopProfiles = func() error { return nil }

// startProfiles starts a CPU profile into cpuPath and arranges for a
// heap allocation profile to be written to memPath when the run ends;
// an empty path skips that profile.
func startProfiles(cpuPath, memPath string) error {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpu = f
	}
	stopProfiles = func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the in-use figures; allocation totals are exact anyway
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// exit finishes the profiles and ends the process with code (1 if a
// profile could not be written).
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "writing profile: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
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
// report (with run, bench.Run outside tests) and compares the header,
// every row cell and every note, then the virtual duration and the
// event count — the bench guard that catches accidental changes (or
// unrecorded improvements) in the simulated timeline and in what the
// tables say. Each entry runs twice: with metrics off, the default
// timeline, and with metrics on, which must reproduce it too (metrics
// move no event) and every counter and histogram field of the
// committed metrics. The simulation is deterministic, so all must
// match the committed entry exactly; only the columns an experiment
// declares host-dependent (Table.HostColumns) are skipped. Returns a
// process exit code.
func compareReport(path string, run func(id string) (*bench.Table, error)) int {
	defer bench.SetObsEnabled(bench.ObsEnabled())
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
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: %s (if the change is intentional, re-record it: %s)\n",
				r.ID, fmt.Sprintf(format, args...), rerecord(path, r.ID))
			code = 1
		}
		bench.SetObsEnabled(false)
		tab, err := run(r.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: %v\n", r.ID, err)
			code = 1
			continue
		}
		if diff := diffTimeline(&r, tab); diff != "" {
			fail("%s", diff)
			continue
		}
		bench.SetObsEnabled(true)
		withObs, err := run(r.ID)
		bench.SetObsEnabled(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: with metrics: %v\n", r.ID, err)
			code = 1
			continue
		}
		if diff := diffTimeline(&r, withObs); diff != "" {
			fmt.Fprintf(os.Stderr, "bench-guard: %s: collecting metrics moved the timeline: %s\n", r.ID, diff)
			code = 1
			continue
		}
		if diff := diffMetrics(r.Metrics, bench.NewJSONResult(r.ID, withObs, 0, nil).Metrics); diff != "" {
			fail("%s", diff)
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

// diffTimeline describes the first difference between a committed
// entry and a fresh run's table (diffTable), virtual duration or event
// count, or returns "" if there is none.
func diffTimeline(r *bench.JSONResult, tab *bench.Table) string {
	if diff := diffTable(r, tab); diff != "" {
		return diff
	}
	if got := int64(tab.Virtual); got != r.VirtualNs {
		return fmt.Sprintf("virtual time drifted %+dns: committed %dns, fresh run %dns", got-r.VirtualNs, r.VirtualNs, got)
	}
	if tab.Events != r.Events {
		return fmt.Sprintf("event count changed: committed %d, fresh run %d", r.Events, tab.Events)
	}
	return ""
}

// diffTable describes the first difference between a committed entry
// and a fresh run's table — header, row count, a cell outside the
// table's host columns, or a note — or returns "" if there is none.
func diffTable(r *bench.JSONResult, tab *bench.Table) string {
	if !slices.Equal(r.Header, tab.Header) {
		return fmt.Sprintf("header changed: committed %q, fresh run %q", r.Header, tab.Header)
	}
	if len(r.Rows) != len(tab.Rows) {
		return fmt.Sprintf("row count changed: committed %d, fresh run %d", len(r.Rows), len(tab.Rows))
	}
	for i, row := range r.Rows {
		fresh := tab.Rows[i]
		if len(row) != len(fresh) {
			return fmt.Sprintf("row %d changed: committed %q, fresh run %q", i, row, fresh)
		}
		for j, cell := range row {
			if cell == fresh[j] || j < len(tab.Header) && slices.Contains(tab.HostColumns, tab.Header[j]) {
				continue
			}
			col := fmt.Sprint(j)
			if j < len(tab.Header) {
				col = fmt.Sprintf("%q", tab.Header[j])
			}
			return fmt.Sprintf("row %d column %s changed: committed %q, fresh run %q", i, col, cell, fresh[j])
		}
	}
	if len(r.Notes) != len(tab.Notes) {
		return fmt.Sprintf("note count changed: committed %d, fresh run %d", len(r.Notes), len(tab.Notes))
	}
	for i, note := range r.Notes {
		if note != tab.Notes[i] {
			return fmt.Sprintf("note %d changed: committed %q, fresh run %q", i, note, tab.Notes[i])
		}
	}
	return ""
}

// diffMetrics describes the first difference between a committed
// entry's metrics and a fresh run's — a counter, or a field of a
// histogram — or returns "" if there is none.
func diffMetrics(was, now *bench.JSONMetrics) string {
	if was == nil {
		was = &bench.JSONMetrics{}
	}
	if now == nil {
		now = &bench.JSONMetrics{}
	}
	var names []string
	for name := range was.Counters {
		names = append(names, name)
	}
	for name := range now.Counters {
		if _, ok := was.Counters[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		a, inWas := was.Counters[name]
		b, inNow := now.Counters[name]
		if a != b || inWas != inNow {
			return fmt.Sprintf("counter %s changed: committed %s, fresh run %s", name, counterText(a, inWas), counterText(b, inNow))
		}
	}
	for k := 0; k < max(len(was.Histograms), len(now.Histograms)); k++ {
		if k >= len(was.Histograms) || k >= len(now.Histograms) || was.Histograms[k].Name != now.Histograms[k].Name {
			return fmt.Sprintf("histograms changed: committed %s, fresh run %s", histNames(was.Histograms), histNames(now.Histograms))
		}
		a, b := was.Histograms[k], now.Histograms[k]
		for _, f := range []struct {
			name string
			a, b int64
		}{
			{"count", a.Count, b.Count}, {"sum_ns", a.SumNs, b.SumNs}, {"min_ns", a.MinNs, b.MinNs},
			{"max_ns", a.MaxNs, b.MaxNs}, {"mean_ns", a.MeanNs, b.MeanNs}, {"p50_ns", a.P50Ns, b.P50Ns},
			{"p99_ns", a.P99Ns, b.P99Ns}, {"p999_ns", a.P999Ns, b.P999Ns},
		} {
			if f.a != f.b {
				return fmt.Sprintf("histogram %s %s changed: committed %d, fresh run %d", a.Name, f.name, f.a, f.b)
			}
		}
	}
	return ""
}

func counterText(v int64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprint(v)
}

func histNames(hs []bench.JSONHist) string {
	names := make([]string, len(hs))
	for k, h := range hs {
		names[k] = h.Name
	}
	return fmt.Sprintf("%q", names)
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
