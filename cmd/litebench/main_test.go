package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lite/internal/bench"
)

// TestCompareReportIsExact pins the bench guard's contract: a committed
// entry passes only when the fresh run reproduces its virtual duration,
// event count, every row cell and every note to the unit; only a column
// the experiment declares host-dependent may differ.
func TestCompareReportIsExact(t *testing.T) {
	tab, err := bench.Run("trace")
	if err != nil {
		t.Fatal(err)
	}
	good := bench.NewJSONResult("trace", tab, 0, nil)
	for _, c := range []struct {
		name   string
		host   []string // columns the fresh run declares host-dependent
		mutate func(*bench.JSONResult)
		want   int
	}{
		{"as recorded", nil, func(*bench.JSONResult) {}, 0},
		{"virtual time off by 1 ns", nil, func(r *bench.JSONResult) { r.VirtualNs++ }, 1},
		{"event count off by one", nil, func(r *bench.JSONResult) { r.Events-- }, 1},
		{"no event count recorded", nil, func(r *bench.JSONResult) { r.Events = 0 }, 1},
		{"no virtual time recorded", nil, func(r *bench.JSONResult) { r.VirtualNs = 0 }, 1},
		{"a changed cell", nil, func(r *bench.JSONResult) { r.Rows[1][3] += "0" }, 1},
		{"a missing row", nil, func(r *bench.JSONResult) { r.Rows = r.Rows[1:] }, 1},
		{"a changed note", nil, func(r *bench.JSONResult) { r.Notes[1] += "." }, 1},
		{"a changed host column", []string{"Dur (us)"}, func(r *bench.JSONResult) { r.Rows[1][3] += "0" }, 0},
	} {
		r := good
		r.Rows = make([][]string, len(good.Rows))
		for i, row := range good.Rows {
			r.Rows[i] = append([]string(nil), row...)
		}
		r.Notes = append([]string(nil), good.Notes...)
		c.mutate(&r)
		path := filepath.Join(t.TempDir(), "feed.json")
		if err := bench.UpdateJSON(path, []bench.JSONResult{r}); err != nil {
			t.Fatal(err)
		}
		run := func(id string) (*bench.Table, error) {
			tab, err := bench.Run(id)
			if tab != nil {
				tab.HostColumns = c.host
			}
			return tab, err
		}
		if got := compareReport(path, run); got != c.want {
			t.Errorf("%s: compareReport = %d, want %d", c.name, got, c.want)
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
