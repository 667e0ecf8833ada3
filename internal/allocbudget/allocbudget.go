// Package allocbudget holds what the allocation-budget tests of the
// datapath packages share: a switch that skips them under the race
// detector, and a per-call byte counter to go with
// testing.AllocsPerRun's per-call allocation count.
//
// A budget test pins the steady-state host allocations of one
// operation (an RDMA post, an LT_RPC round trip, a one-sided GET), so a
// change that puts the datapath back on the heap fails a test instead
// of only moving a benchmark nobody reran.
package allocbudget

import (
	"runtime"
	"testing"
)

// SkipUnderRace skips t when the race detector is on: it instruments
// allocations, so the counts mean nothing there.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are not checked under the race detector")
	}
}

// Bytes returns the average number of heap bytes allocated per call of
// f over runs calls, after one warm-up call, the way
// testing.AllocsPerRun counts allocations.
func Bytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-before) / float64(runs)
}
