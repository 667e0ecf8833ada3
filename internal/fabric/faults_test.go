package fabric

import (
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

func TestSetNodeDownCutsAllDirections(t *testing.T) {
	f, _ := newFab(t)
	f.SetNodeDown(2)
	for _, pair := range [][2]int{{2, 0}, {0, 2}, {2, 3}, {3, 2}} {
		if f.Reachable(pair[0], pair[1]) {
			t.Fatalf("node 2 down but %v reachable", pair)
		}
		if _, ok := f.ReservePath(0, pair[0], pair[1], 64); ok {
			t.Fatalf("delivery over downed node %v", pair)
		}
	}
	if !f.Reachable(0, 1) || !f.Reachable(3, 0) {
		t.Fatal("unrelated links affected by SetNodeDown")
	}
	f.SetNodeUp(2)
	if !f.Reachable(0, 2) || !f.Reachable(2, 3) {
		t.Fatal("SetNodeUp did not restore reachability")
	}
}

func TestPartitionIsSymmetric(t *testing.T) {
	f, _ := newFab(t)
	f.Partition([]int{0, 1}, []int{2, 3})
	for _, a := range []int{0, 1} {
		for _, b := range []int{2, 3} {
			if f.Reachable(a, b) || f.Reachable(b, a) {
				t.Fatalf("cross pair %d<->%d still reachable", a, b)
			}
		}
	}
	if !f.Reachable(0, 1) || !f.Reachable(2, 3) {
		t.Fatal("intra-side links cut by Partition")
	}
	f.HealPartition([]int{0, 1}, []int{2, 3})
	if !f.Reachable(0, 3) || !f.Reachable(3, 0) {
		t.Fatal("HealPartition did not restore the cross links")
	}
}

func TestNodeDownComposesWithPartition(t *testing.T) {
	// A node marked down stays down even if a partition containing it
	// is healed: the two mechanisms are independent.
	f, _ := newFab(t)
	f.SetNodeDown(1)
	f.Partition([]int{0, 1}, []int{2, 3})
	f.HealPartition([]int{0, 1}, []int{2, 3})
	if f.Reachable(0, 1) {
		t.Fatal("healing a partition revived a downed node")
	}
	f.SetNodeUp(1)
	if !f.Reachable(0, 1) {
		t.Fatal("node never came back")
	}
}

func TestDropHookLossAndCounting(t *testing.T) {
	f, _ := newFab(t)
	reg := obs.NewDomain(1).Global()
	f.SetObs(reg)
	drop := false
	f.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool { return drop })
	if _, ok := f.ReservePath(0, 0, 1, 64); !ok {
		t.Fatal("hook returning false dropped a message")
	}
	drop = true
	if _, ok := f.ReservePath(0, 0, 1, 64); ok {
		t.Fatal("hook returning true delivered a message")
	}
	// Loopback bypasses the wire: loss must never apply to it.
	if _, ok := f.ReservePath(0, 1, 1, 64); !ok {
		t.Fatal("loopback message dropped by loss hook")
	}
	if got := reg.Snapshot().Counters["fabric.dropped"]; got != 1 {
		t.Fatalf("fabric.dropped = %d, want 1", got)
	}
}

func TestNodeDelaySlowsBothEndpoints(t *testing.T) {
	f, cfg := newFab(t)
	base, ok := f.ReservePath(0, 0, 1, 4096)
	if !ok {
		t.Fatal("unreachable")
	}
	d := 3 * time.Microsecond
	f.SetNodeDelay(1, d)
	slowRecv, _ := f.ReservePath(base, 0, 1, 4096)
	if want := base + (base - 0) + d; slowRecv != want {
		// Second reservation starts where the first ended; the
		// injected delay shifts head arrival by exactly d.
		t.Fatalf("delayed arrival = %v, want %v", slowRecv, want)
	}
	f.SetNodeDelay(1, 0)
	_ = cfg
}
