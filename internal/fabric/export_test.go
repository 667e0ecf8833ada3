package fabric

import "lite/internal/simtime"

// LeafOf returns the leaf switch a node attaches to, or 0 in
// single-switch mode.
func (f *Fabric) LeafOf(node int) int {
	if f.leafNodes <= 0 {
		return 0
	}
	return node / f.leafNodes
}

// UplinkBusy returns the total busy time of the leaf->spine uplink;
// zero if the link has carried no traffic (or in single-switch mode).
func (f *Fabric) UplinkBusy(leaf, spine int) simtime.Time {
	if leaf >= 0 && leaf < len(f.uplinks) {
		if row := f.uplinks[leaf]; spine >= 0 && spine < len(row) {
			return row[spine].BusyTotal()
		}
	}
	return 0
}

// Ports returns the number of registered ports.
func (f *Fabric) Ports() int {
	n := 0
	for _, p := range f.ports {
		if p != nil {
			n++
		}
	}
	return n
}

// Partition symmetrically severs every pair crossing the (a, b) cut.
func (f *Fabric) Partition(a, b []int) {
	for _, x := range a {
		for _, y := range b {
			f.SetLinkDown(x, y)
			f.SetLinkDown(y, x)
		}
	}
}

// HealPartition undoes Partition for the same two groups.
func (f *Fabric) HealPartition(a, b []int) {
	for _, x := range a {
		for _, y := range b {
			f.SetLinkUp(x, y)
			f.SetLinkUp(y, x)
		}
	}
}
