package main

import (
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
		if err := bench.WriteJSON(path, []bench.JSONResult{r}); err != nil {
			t.Fatal(err)
		}
		if got := compareReport(path); got != c.want {
			t.Errorf("%s: compareReport = %d, want %d", c.name, got, c.want)
		}
	}
}
