package fabric

import (
	"testing"
	"time"

	"lite/internal/params"
)

// newClos builds a two-tier fabric: leaves of 4 hosts, 2 spines, with
// nodes 0..11 registered (three leaves).
func newClos(t *testing.T) (*Fabric, *params.Config) {
	t.Helper()
	cfg := params.Default()
	cfg.ClosLeafNodes = 4
	cfg.ClosSpines = 2
	f := New(&cfg)
	for i := 0; i < 12; i++ {
		if err := f.AddPort(i); err != nil {
			t.Fatal(err)
		}
	}
	return f, &cfg
}

func TestLeafAssignment(t *testing.T) {
	f, _ := newClos(t)
	for node, wantLeaf := range map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 2, 11: 2} {
		if got := f.LeafOf(node); got != wantLeaf {
			t.Fatalf("LeafOf(%d) = %d, want %d", node, got, wantLeaf)
		}
	}
	single := New(&params.Config{})
	if single.LeafOf(9) != 0 {
		t.Fatal("single-switch LeafOf must be 0")
	}
}

// TestECMPDeterminism pins the ECMP contract: the spine choice is a
// pure function of (src, dst, seed) — identical across calls and
// across fabric instances — and changing the seed still yields a valid
// deterministic choice.
func TestECMPDeterminism(t *testing.T) {
	f1, _ := newClos(t)
	f2, _ := newClos(t)
	spread := map[int]bool{}
	for src := 0; src < 4; src++ {
		for dst := 4; dst < 12; dst++ {
			s1 := f1.SpineFor(src, dst)
			if s1 < 0 || s1 >= 2 {
				t.Fatalf("SpineFor(%d,%d) = %d, out of range", src, dst, s1)
			}
			if s2 := f2.SpineFor(src, dst); s2 != s1 {
				t.Fatalf("SpineFor(%d,%d) differs across instances: %d vs %d", src, dst, s1, s2)
			}
			if again := f1.SpineFor(src, dst); again != s1 {
				t.Fatalf("SpineFor(%d,%d) not stable: %d then %d", src, dst, s1, again)
			}
			spread[s1] = true
		}
	}
	if len(spread) != 2 {
		t.Fatalf("ECMP hashed every flow onto the same spine: %v", spread)
	}
	// Same-leaf, loopback, and single-switch flows never cross a spine.
	if f1.SpineFor(0, 3) != -1 || f1.SpineFor(5, 5) != -1 {
		t.Fatal("same-leaf or loopback flow crossed the spine layer")
	}
	single := New(&params.Config{})
	if single.SpineFor(0, 9) != -1 {
		t.Fatal("single-switch flow crossed the spine layer")
	}
}

// TestClosCrossLeafCost checks the two-tier path formula: a cross-leaf
// message pays three switch hops and serializes onto the uplink and
// downlink at the (slower) uplink bandwidth.
func TestClosCrossLeafCost(t *testing.T) {
	f, cfg := newClos(t)
	size := int64(64 << 10)
	ser := params.TransferTime(size, cfg.LinkBandwidth)
	serUp := params.TransferTime(size, f.uplinkBW)
	done, ok := f.ReservePath(0, 0, 8, size)
	if !ok {
		t.Fatal("unreachable")
	}
	hop := cfg.PropagationDelay + cfg.SwitchDelay
	// Walk the cut-through formula hop by hop: egress serialization,
	// then uplink and downlink serialization at uplink bandwidth, one
	// propagation+switch delay per hop, ingress tail at link rate.
	egressDone := ser
	head := egressDone - ser + hop
	upDone := head + serUp
	head2 := upDone - serUp + hop
	dnDone := head2 + serUp
	head3 := dnDone - serUp + hop
	expect := head3 + ser
	if done != expect {
		t.Fatalf("cross-leaf done = %v, want %v", done, expect)
	}
	// Same-leaf traffic pays the single-switch cost.
	sameDone, ok := f.ReservePath(0, 4, 5, size)
	if !ok {
		t.Fatal("unreachable")
	}
	if sameWant := ser + hop; sameDone != sameWant {
		t.Fatalf("same-leaf done = %v, want %v", sameDone, sameWant)
	}
}

// TestClosUplinkContention checks that two flows hashed onto the same
// uplink serialize behind each other while the oversubscription
// counter moves.
func TestClosUplinkContention(t *testing.T) {
	f, _ := newClos(t)
	size := int64(1 << 20)
	serUp := params.TransferTime(size, f.uplinkBW)
	// Find two distinct sources on leaf 0 whose flows to leaf 2 share
	// a spine (with 4 sources and 2 spines there is always a pair).
	var flows [][2]int
	for src := 0; src < 4; src++ {
		flows = append(flows, [2]int{src, 8 + src%4})
	}
	bySpine := map[int][][2]int{}
	for _, fl := range flows {
		bySpine[f.SpineFor(fl[0], fl[1])] = append(bySpine[f.SpineFor(fl[0], fl[1])], fl)
	}
	var pair [][2]int
	for _, fls := range bySpine {
		if len(fls) >= 2 {
			pair = fls[:2]
			break
		}
	}
	if pair == nil {
		t.Fatal("no two flows shared a spine")
	}
	d1, ok1 := f.ReservePath(0, pair[0][0], pair[0][1], size)
	d2, ok2 := f.ReservePath(0, pair[1][0], pair[1][1], size)
	if !ok1 || !ok2 {
		t.Fatal("unreachable")
	}
	spine := f.SpineFor(pair[0][0], pair[0][1])
	if gap := d2 - d1; gap < serUp {
		t.Fatalf("second flow finished %v after first, want >= %v (uplink serialized)", gap, serUp)
	}
	if busy := f.UplinkBusy(0, spine); busy != 2*serUp {
		t.Fatalf("UplinkBusy = %v, want %v", busy, 2*serUp)
	}
	if f.UplinkBusy(7, 9) != 0 {
		t.Fatal("untouched uplink reports busy time")
	}
	if f.Ports() != 12 {
		t.Fatalf("Ports() = %d, want 12", f.Ports())
	}
}

// TestClosFaultsApply checks the failure-injection surface composes
// with Clos paths: node cuts and link cuts block cross-leaf flows too.
func TestClosFaultsApply(t *testing.T) {
	f, _ := newClos(t)
	if _, ok := f.ReservePath(0, 1, 9, 1024); !ok {
		t.Fatal("healthy path unreachable")
	}
	f.SetNodeDown(9)
	if _, ok := f.ReservePath(0, 1, 9, 1024); ok {
		t.Fatal("message reached a downed node")
	}
	f.SetNodeUp(9)
	f.SetLinkDown(1, 9)
	if _, ok := f.ReservePath(0, 1, 9, 1024); ok {
		t.Fatal("message crossed a cut link")
	}
	if _, ok := f.ReservePath(0, 9, 1, 1024); !ok {
		t.Fatal("reverse direction should be unaffected by a one-way cut")
	}
	f.SetLinkUp(1, 9)
	if _, ok := f.ReservePath(0, 1, 9, 1024); !ok {
		t.Fatal("path still down after repair")
	}
	f.SetNodeDelay(9, 3*time.Microsecond)
	d2, ok := f.ReservePath(time.Millisecond, 2, 9, 1024)
	if !ok {
		t.Fatal("delayed node unreachable")
	}
	// Compare against the same flow's healthy cost rather than a sibling
	// node: leaf/spine geometry differs per destination.
	f.SetNodeDelay(9, 0)
	d3, ok := f.ReservePath(time.Millisecond, 2, 9, 1024)
	if !ok {
		t.Fatal("unreachable after clearing delay")
	}
	if d2 <= d3 {
		t.Fatalf("slow-node delay had no effect: %v vs %v", d2, d3)
	}
}
