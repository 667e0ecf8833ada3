package main

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lite/internal/bench"
)

// TestCompareReportIsExact pins the bench guard's contract: a committed
// entry passes only when the fresh run reproduces its virtual duration,
// event count, every row cell, every note and every metric to the unit;
// only a column the experiment declares host-dependent may differ.
func TestCompareReportIsExact(t *testing.T) {
	bench.SetObsEnabled(true) // the feed records metrics
	tab, err := bench.Run("trace")
	bench.SetObsEnabled(false)
	if err != nil {
		t.Fatal(err)
	}
	good := bench.NewJSONResult("trace", tab, 0, nil)
	if good.Metrics == nil || len(good.Metrics.Counters) == 0 || len(good.Metrics.Histograms) == 0 {
		t.Fatalf("trace recorded metrics %+v, want counters and histograms", good.Metrics)
	}
	anyCounter := func(m *bench.JSONMetrics) string {
		for name := range m.Counters {
			return name
		}
		return ""
	}
	for _, c := range []struct {
		name   string
		host   []string // columns the fresh run declares host-dependent
		mutate func(*bench.JSONResult)
		want   int
		skew   bool // the run with metrics on counts one more event
	}{
		{"as recorded", nil, func(*bench.JSONResult) {}, 0, false},
		{"metrics move an event", nil, func(*bench.JSONResult) {}, 1, true},
		{"virtual time off by 1 ns", nil, func(r *bench.JSONResult) { r.VirtualNs++ }, 1, false},
		{"event count off by one", nil, func(r *bench.JSONResult) { r.Events-- }, 1, false},
		{"no event count recorded", nil, func(r *bench.JSONResult) { r.Events = 0 }, 1, false},
		{"no virtual time recorded", nil, func(r *bench.JSONResult) { r.VirtualNs = 0 }, 1, false},
		{"a changed cell", nil, func(r *bench.JSONResult) { r.Rows[1][3] += "0" }, 1, false},
		{"a missing row", nil, func(r *bench.JSONResult) { r.Rows = r.Rows[1:] }, 1, false},
		{"a changed note", nil, func(r *bench.JSONResult) { r.Notes[1] += "." }, 1, false},
		{"a changed host column", []string{"Dur (us)"}, func(r *bench.JSONResult) { r.Rows[1][3] += "0" }, 0, false},
		{"a counter off by one", nil, func(r *bench.JSONResult) { r.Metrics.Counters[anyCounter(r.Metrics)]++ }, 1, false},
		{"a counter missing", nil, func(r *bench.JSONResult) { delete(r.Metrics.Counters, anyCounter(r.Metrics)) }, 1, false},
		{"a counter the run does not make", nil, func(r *bench.JSONResult) { r.Metrics.Counters["stale.counter"] = 0 }, 1, false},
		{"a histogram's p99 off by 1 ns", nil, func(r *bench.JSONResult) { r.Metrics.Histograms[0].P99Ns++ }, 1, false},
		{"a histogram missing", nil, func(r *bench.JSONResult) { r.Metrics.Histograms = r.Metrics.Histograms[1:] }, 1, false},
		{"no metrics recorded", nil, func(r *bench.JSONResult) { r.Metrics = nil }, 1, false},
	} {
		r := good
		r.Rows = make([][]string, len(good.Rows))
		for i, row := range good.Rows {
			r.Rows[i] = append([]string(nil), row...)
		}
		r.Notes = append([]string(nil), good.Notes...)
		r.Metrics = &bench.JSONMetrics{Counters: maps.Clone(good.Metrics.Counters), Histograms: slices.Clone(good.Metrics.Histograms)}
		c.mutate(&r)
		path := filepath.Join(t.TempDir(), "feed.json")
		if err := bench.UpdateJSON(path, []bench.JSONResult{r}); err != nil {
			t.Fatal(err)
		}
		run := func(id string) (*bench.Table, error) {
			tab, err := bench.Run(id)
			if tab != nil {
				tab.HostColumns = c.host
				if c.skew && bench.ObsEnabled() {
					tab.Events++
				}
			}
			return tab, err
		}
		if got := compareReport(path, run); got != c.want {
			t.Errorf("%s: compareReport = %d, want %d", c.name, got, c.want)
		}
		if bench.ObsEnabled() {
			t.Fatalf("%s: compareReport left metrics on", c.name)
		}
	}
}

// An entry whose experiment builds no cluster (fig12 computes its table
// from a size distribution) records no virtual time and no events; the
// guard judges it on its rows and notes alone.
func TestCompareReportJudgesClusterlessEntriesOnRows(t *testing.T) {
	tab, err := bench.Run("fig12")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Events != 0 || tab.Virtual != 0 {
		t.Fatalf("fig12: %d events over %v, want a clusterless experiment", tab.Events, tab.Virtual)
	}
	good := bench.NewJSONResult("fig12", tab, 0, nil)
	for _, c := range []struct {
		name string
		cell string
		want int
	}{{"as recorded", good.Rows[0][1], 0}, {"a changed cell", "0%", 1}} {
		r := good
		r.Rows = append([][]string{{good.Rows[0][0], c.cell, good.Rows[0][2]}}, good.Rows[1:]...)
		path := filepath.Join(t.TempDir(), "feed.json")
		if err := bench.UpdateJSON(path, []bench.JSONResult{r}); err != nil {
			t.Fatal(err)
		}
		if got := compareReport(path, bench.Run); got != c.want {
			t.Errorf("%s: compareReport = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCompareReportRetimesSlowEntries: an entry whose events/sec falls
// below the band is re-timed up to twice more and the best run judged,
// so one run stalled by a shared host does not fail the guard while a
// simulator slow on every run still does. Virtual time and event counts
// are judged on the first run alone.
func TestCompareReportRetimesSlowEntries(t *testing.T) {
	const committed = 1000.0
	rec := &bench.Table{Virtual: 5000, Events: 40, EventsPerSec: committed}
	path := filepath.Join(t.TempDir(), "feed.json")
	if err := bench.UpdateJSON(path, []bench.JSONResult{bench.NewJSONResult("scale", rec, 0, nil)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		eps  []float64 // events/sec of successive runs
		skew bool      // the first run's event count differs
		runs int
		want int
	}{
		{"in band", []float64{800}, false, 1, 0},
		{"one slow run", []float64{600, 900}, false, 2, 0},
		{"two slow runs", []float64{600, 650, 780}, false, 3, 0},
		{"slow every run", []float64{600, 700, 740}, false, 3, 1},
		{"event count drifted: failed, not re-timed", []float64{600}, true, 1, 1},
	} {
		runs := 0
		fake := func(id string) (*bench.Table, error) {
			if bench.ObsEnabled() { // the untimed run that checks metrics
				return rec, nil
			}
			if runs == len(c.eps) {
				return nil, errors.New("ran once too often")
			}
			tab := *rec
			tab.EventsPerSec = c.eps[runs]
			if c.skew && runs == 0 {
				tab.Events++
			}
			runs++
			return &tab, nil
		}
		if got := compareReport(path, fake); got != c.want || runs != c.runs {
			t.Errorf("%s: compareReport = %d after %d runs, want %d after %d", c.name, got, runs, c.want, c.runs)
		}
	}
}

// -cpuprofile and -memprofile leave one pprof file each behind a run.
func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := startProfiles(cpu, mem); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Run("trace"); err != nil {
		t.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
