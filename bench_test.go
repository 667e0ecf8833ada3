// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation, and every experiment since; each
// sub-benchmark runs one experiment once per iteration and prints its
// table under -v. Run them all with:
//
//	go test -bench=. -benchtime=1x -benchmem
//
// The cmd/litebench binary produces the same tables with nicer output.
package main

import (
	"testing"

	"lite/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := bench.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + tab.Format())
		}
	}
}

// BenchmarkExperiments runs every registered experiment as a
// sub-benchmark named by its id; select some with, for example,
// -bench 'Experiments/fig1'.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) { runExperiment(b, e.ID) })
	}
}
