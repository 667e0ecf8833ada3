package fabric

import (
	"testing"
	"time"

	"lite/internal/params"
	"lite/internal/simtime"
)

func newFab(t *testing.T) (*Fabric, *params.Config) {
	t.Helper()
	cfg := params.Default()
	f := New(&cfg)
	for i := 0; i < 4; i++ {
		if err := f.AddPort(i); err != nil {
			t.Fatal(err)
		}
	}
	return f, &cfg
}

func TestDuplicatePort(t *testing.T) {
	f, _ := newFab(t)
	if err := f.AddPort(0); err == nil {
		t.Fatal("expected error adding duplicate port")
	}
}

// Port ids index the per-node tables, so AddPort refuses one outside
// [0, denseLimit), and a cut naming such an id is a no-op.
func TestAddPortRejectsOutOfRangeID(t *testing.T) {
	f, _ := newFab(t)
	for _, id := range []int{-1, denseLimit, denseLimit + 7} {
		if err := f.AddPort(id); err == nil {
			t.Errorf("AddPort(%d) succeeded", id)
		}
		f.SetLinkDown(0, id)
		f.SetNodeDown(id)
		f.SetNodeDelay(id, time.Microsecond)
		if f.NodeDown(id) || f.Reachable(0, id) {
			t.Errorf("id %d: down %v, reachable %v", id, f.NodeDown(id), f.Reachable(0, id))
		}
	}
	if err := f.AddPort(denseLimit - 1); err != nil {
		t.Fatalf("AddPort(%d): %v", denseLimit-1, err)
	}
	if _, ok := f.ReservePath(0, 0, 1, 64); !ok {
		t.Fatal("out-of-range cuts disturbed a valid path")
	}
}

func TestUncontendedLatency(t *testing.T) {
	f, cfg := newFab(t)
	size := int64(4096)
	ser := params.TransferTime(size, cfg.LinkBandwidth)
	done, ok := f.ReservePath(0, 0, 1, size)
	if !ok {
		t.Fatal("unreachable")
	}
	want := ser + cfg.PropagationDelay + cfg.SwitchDelay
	if done != want {
		t.Fatalf("done = %v, want %v (single serialization, cut-through)", done, want)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	f, _ := newFab(t)
	done, ok := f.ReservePath(77*time.Microsecond, 2, 2, 1<<20)
	if !ok || done != 77*time.Microsecond {
		t.Fatalf("loopback done = %v ok=%v", done, ok)
	}
}

func TestEgressContentionQueues(t *testing.T) {
	f, cfg := newFab(t)
	size := int64(1 << 20)
	ser := params.TransferTime(size, cfg.LinkBandwidth)
	d1, _ := f.ReservePath(0, 0, 1, size)
	d2, _ := f.ReservePath(0, 0, 2, size) // same source, different dest
	if d2-d1 != ser {
		t.Fatalf("second message finished %v after first, want %v (egress serialized)", d2-d1, ser)
	}
}

func TestIncastContentionQueues(t *testing.T) {
	f, cfg := newFab(t)
	size := int64(1 << 20)
	ser := params.TransferTime(size, cfg.LinkBandwidth)
	d1, _ := f.ReservePath(0, 0, 3, size)
	d2, _ := f.ReservePath(0, 1, 3, size) // different source, same dest
	if d2-d1 != ser {
		t.Fatalf("incast second finished %v after first, want %v (ingress serialized)", d2-d1, ser)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	f, _ := newFab(t)
	size := int64(1 << 20)
	d1, _ := f.ReservePath(0, 0, 1, size)
	d2, _ := f.ReservePath(0, 2, 3, size)
	if d1 != d2 {
		t.Fatalf("disjoint transfers finished at %v and %v, want equal", d1, d2)
	}
}

func TestLinkDown(t *testing.T) {
	f, _ := newFab(t)
	f.SetLinkDown(0, 1)
	if _, ok := f.ReservePath(0, 0, 1, 64); ok {
		t.Fatal("delivery succeeded on down link")
	}
	// Direction matters.
	if _, ok := f.ReservePath(0, 1, 0, 64); !ok {
		t.Fatal("reverse direction should be up")
	}
	f.SetLinkUp(0, 1)
	if _, ok := f.ReservePath(0, 0, 1, 64); !ok {
		t.Fatal("delivery failed after SetLinkUp")
	}
}

func TestUnknownPortUnreachable(t *testing.T) {
	f, _ := newFab(t)
	if f.Reachable(0, 99) || f.Reachable(99, 0) {
		t.Fatal("unknown port reported reachable")
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Pushing N MB through one egress takes N MB / linkBW.
	f, cfg := newFab(t)
	const n = 16
	size := int64(1 << 20)
	var last simtime.Time
	for i := 0; i < n; i++ {
		d, _ := f.ReservePath(0, 0, 1, size)
		last = d
	}
	ser := params.TransferTime(size, cfg.LinkBandwidth)
	want := n*ser + cfg.PropagationDelay + cfg.SwitchDelay
	if last != want {
		t.Fatalf("last = %v, want %v", last, want)
	}
	if got := f.EgressBusy(0); got != n*ser {
		t.Fatalf("egress busy = %v", got)
	}
}
