package main

import (
	"errors"
	"path/filepath"
	"testing"

	"lite/internal/bench"
)

// TestCompareReportIsExact pins the bench guard's contract: a committed
// entry passes only when the fresh run reproduces its virtual duration
// and event count to the unit, and an entry that records no event count
// fails instead of skipping the check.
func TestCompareReportIsExact(t *testing.T) {
	tab, err := bench.Run("trace")
	if err != nil {
		t.Fatal(err)
	}
	good := bench.NewJSONResult("trace", tab, 0, nil)
	for _, c := range []struct {
		name   string
		mutate func(*bench.JSONResult)
		want   int
	}{
		{"as recorded", func(*bench.JSONResult) {}, 0},
		{"virtual time off by 1 ns", func(r *bench.JSONResult) { r.VirtualNs++ }, 1},
		{"event count off by one", func(r *bench.JSONResult) { r.Events-- }, 1},
		{"no event count recorded", func(r *bench.JSONResult) { r.Events = 0 }, 1},
		{"no virtual time recorded", func(r *bench.JSONResult) { r.VirtualNs = 0 }, 1},
	} {
		r := good
		c.mutate(&r)
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
