// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation, each regenerating the same rows or
// series the paper reports (see DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured results).
package bench

import (
	"fmt"
	"sort"
	"strings"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Virtual is the longest virtual-time span simulated by any cluster
	// the experiment built — the "how long would this have taken on real
	// hardware" figure, as opposed to host wall time.
	Virtual simtime.Time
	// Metrics is the merged observability snapshot across every cluster
	// the experiment built. Nil unless metrics collection was enabled
	// with SetObsEnabled (or an experiment enabled obs itself).
	Metrics *obs.Snapshot

	// Events is the total number of simulator events dispatched across
	// every cluster the experiment built (filled by Run). Deterministic
	// for a given workload, like Virtual.
	Events int64
	// EventsPerSec is the simulator's raw wall-time speed measured by
	// the experiment itself (events dispatched per host second). Only
	// experiments that measure it set it (see scalebench.go); unlike
	// every other figure it is host-dependent, so the bench guard
	// compares it with a tolerance band rather than exactly.
	EventsPerSec float64
	// HostColumns names the columns of Header whose cells are measured
	// on the host clock (wall or CPU time of the simulator itself). The
	// bench guard compares every other cell exactly and skips these.
	HostColumns []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

var registry []Experiment

func register(id, title string, run func() (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes one experiment by id. The returned table carries the
// virtual duration and (when enabled) merged metrics of every cluster
// the experiment constructed.
func Run(id string) (*Table, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q", id)
	}
	runClusters = nil
	tab, err := e.Run()
	if tab != nil {
		for _, cls := range runClusters {
			if d := cls.Env.Now(); d > tab.Virtual {
				tab.Virtual = d
			}
			tab.Events += cls.Env.Events()
		}
		if obsEnabled {
			var snaps []obs.Snapshot
			for _, cls := range runClusters {
				if cls.Obs != nil {
					snaps = append(snaps, cls.Obs.Snapshot())
				}
			}
			if len(snaps) > 0 {
				merged := obs.Merge(snaps...)
				tab.Metrics = &merged
			}
		}
	}
	runClusters = nil
	return tab, err
}

// ---- shared helpers ----

// obsEnabled makes newLITECfg/newBare enable observability on every
// cluster they build, so Run can attach a metrics snapshot.
var obsEnabled bool

// runClusters collects the clusters built during the current Run call
// (the harness is single-threaded).
var runClusters []*cluster.Cluster

// SetObsEnabled toggles metrics collection for subsequently run
// experiments.
func SetObsEnabled(v bool) { obsEnabled = v }

// ObsEnabled reports whether experiments run now collect metrics.
func ObsEnabled() bool { return obsEnabled }

// track registers a cluster with the current experiment run.
func track(cls *cluster.Cluster) *cluster.Cluster {
	if obsEnabled {
		cls.EnableObs()
	}
	runClusters = append(runClusters, cls)
	return cls
}

// newLITE builds an n-node cluster with LITE booted.
func newLITE(n int) (*cluster.Cluster, *lite.Deployment, error) {
	return newLITEOpts(n, lite.DefaultOptions())
}

// newLITEOpts is newLITE with explicit LITE options.
func newLITEOpts(n int, opts lite.Options) (*cluster.Cluster, *lite.Deployment, error) {
	cfg := params.Default()
	return newLITECfg(&cfg, n, opts)
}

// newLITECfg is newLITE with an explicit cost model and LITE options.
// The config is copied so the caller may reuse it.
func newLITECfg(cfg *params.Config, n int, opts lite.Options) (*cluster.Cluster, *lite.Deployment, error) {
	own := *cfg
	cls, err := cluster.New(&own, n, 4<<30)
	if err != nil {
		return nil, nil, err
	}
	track(cls)
	dep, err := lite.Start(cls, opts)
	if err != nil {
		return nil, nil, err
	}
	return cls, dep, nil
}

// newBare builds an n-node cluster without LITE.
func newBare(n int) (*cluster.Cluster, error) {
	cfg := params.Default()
	cls, err := cluster.New(&cfg, n, 4<<30)
	if err != nil {
		return nil, err
	}
	return track(cls), nil
}

// us formats a duration in microseconds.
func us(d simtime.Time) string { return fmt.Sprintf("%.2f", float64(d)/1000.0) }

// ms formats a duration in milliseconds.
func ms(d simtime.Time) string { return fmt.Sprintf("%.2f", d.Seconds()*1000) }

// bytesPerSec returns bytes moved over a duration as bytes/s.
func bytesPerSec(bytes int64, d simtime.Time) float64 { return float64(bytes) / d.Seconds() }

// gbps formats bytes over a duration as GB/s.
func gbps(bytes int64, d simtime.Time) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(bytes)/d.Seconds()/1e9)
}

// reqPerUs formats an operation rate as requests per microsecond.
func reqPerUs(ops int64, d simtime.Time) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(ops)/(float64(d)/1000.0))
}

// xorshift is a tiny deterministic PRNG for workload loops.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}
