package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// unguarded names the registered experiments the committed feed leaves
// out, each with the check that guards it instead.
var unguarded = map[string]string{
	"chaos": "make determinism-guard replays it byte for byte against GOLDEN_chaos.txt",
}

// feedIDs returns the ids the committed feed records. The feed is the
// one list of guarded experiments: make bench-smoke regenerates it from
// the registry, and bench-guard replays every entry.
func feedIDs(t *testing.T) map[string]bool {
	t.Helper()
	rep, err := ReadJSON(filepath.Join("..", "..", "BENCH_litebench.json"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool, len(rep.Results))
	for _, r := range rep.Results {
		ids[r.ID] = true
	}
	return ids
}

// TestRegistryComplete: every experiment the committed feed records —
// every table, figure and ablation of the paper's evaluation, and every
// experiment since — is registered, so removing one fails here.
func TestRegistryComplete(t *testing.T) {
	for id := range feedIDs(t) {
		if _, ok := Lookup(id); !ok {
			t.Errorf("feed entry %q names no registered experiment", id)
		}
	}
}

// TestEveryExperimentIsGuarded: no experiment can land ungated. Each
// registered experiment is either in the committed feed, which
// bench-guard compares row for row, or named in unguarded with the check
// that covers it instead — never both.
func TestEveryExperimentIsGuarded(t *testing.T) {
	feed := feedIDs(t)
	for _, e := range All() {
		why, excluded := unguarded[e.ID]
		switch {
		case excluded && feed[e.ID]:
			t.Errorf("%s is in the feed but also excluded from it (%s)", e.ID, why)
		case !excluded && !feed[e.ID]:
			t.Errorf("%s is not in the committed feed: record it with litebench -metrics -json BENCH_litebench.json %s", e.ID, e.ID)
		}
	}
	for id := range unguarded {
		if _, ok := Lookup(id); !ok {
			t.Errorf("unguarded names %q, which is not registered", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Note("a note")
	out := tab.Format()
	for _, want := range []string{"== x: demo ==", "333", "# a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestSmallExperimentsRun executes the cheap experiments end to end so
// the harness itself stays green under `go test`.
func TestSmallExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig8", "fig12", "breakdown", "fig6"} {
		tab, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}
