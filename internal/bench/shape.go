package bench

import (
	"fmt"

	"lite/internal/simtime"
)

// Paper shapes. bench-guard pins every cell of a figure, so a change
// that moves one is seen; these predicates judge the re-recorded figure
// against the shape its "paper:" note states, and fail the experiment
// when a change un-reproduces it.

// fig13Row is one inter-arrival factor of Fig 13: CPU time per request
// of each scheme.
type fig13Row struct {
	factor            int
	herd, fasst, lite simtime.Time
}

// fig13Shape: once the gaps are stretched (2x and up) LITE burns less
// CPU per request than both polling designs, and theirs grows with the
// factor, since they poll through the idle time.
func fig13Shape(rows []fig13Row) error {
	for k, r := range rows {
		if r.factor >= 2 && (r.lite >= r.herd || r.lite >= r.fasst) {
			return fmt.Errorf("at %dx LITE burns %s us per request, not below HERD %s and FaSST %s",
				r.factor, us(r.lite), us(r.herd), us(r.fasst))
		}
		if k > 0 && (r.herd <= rows[k-1].herd || r.fasst <= rows[k-1].fasst) {
			p := rows[k-1]
			return fmt.Errorf("polling CPU per request does not grow from %dx to %dx: HERD %s -> %s us, FaSST %s -> %s us",
				p.factor, r.factor, us(p.herd), us(r.herd), us(p.fasst), us(r.fasst))
		}
	}
	return nil
}

// tabCPUPeers is how far apart HERD's and FaSST's total CPU may be and
// still read as equal (paper: 8.7 s and 8.8 s).
const tabCPUPeers = 0.10

// tabCPUShape: LITE < HERD ≈ FaSST in total CPU time.
func tabCPUShape(lite, herd, fasst simtime.Time) error {
	if lite >= herd || lite >= fasst {
		return fmt.Errorf("LITE burns %s ms, not below HERD %s ms and FaSST %s ms", ms(lite), ms(herd), ms(fasst))
	}
	if lo, hi := min(herd, fasst), max(herd, fasst); float64(hi-lo) > tabCPUPeers*float64(hi) {
		return fmt.Errorf("HERD %s ms and FaSST %s ms differ by more than %.0f%%", ms(herd), ms(fasst), tabCPUPeers*100)
	}
	return nil
}

// windowRow is one adaptive poll window of the abl-window ablation.
type windowRow struct {
	window, lat, cpu simtime.Time
}

// ablWindowShape: a longer poll window never raises RPC latency (fewer
// calls pay a wakeup) and always raises CPU per light-load request
// (more of every gap is spent polling) — §5.2's tradeoff.
func ablWindowShape(rows []windowRow) error {
	for k := 1; k < len(rows); k++ {
		p, r := rows[k-1], rows[k]
		if r.lat > p.lat {
			return fmt.Errorf("latency rises from %s us at a %s us window to %s us at %s us",
				us(p.lat), us(p.window), us(r.lat), us(r.window))
		}
		if r.cpu <= p.cpu {
			return fmt.Errorf("CPU per request does not rise from %s us at a %s us window to %s us at %s us",
				us(p.cpu), us(p.window), us(r.cpu), us(r.window))
		}
	}
	return nil
}

// fig4Row is one (L)MR count of Fig 4: the mean 64 B write latency.
type fig4Row struct {
	mrs         int
	verbs, lite simtime.Time
}

// fig4Shape: LITE's write latency stays within 5 % of its 10-MR value
// at every count (one global physical MR), while Verbs' at 1 000 MRs is
// at least 1.5x its 100-MR value (the NIC's key cache thrashes).
func fig4Shape(rows []fig4Row) error {
	at := map[int]fig4Row{}
	for _, r := range rows {
		at[r.mrs] = r
	}
	base, v100, v1000 := at[10].lite, at[100].verbs, at[1000].verbs
	for _, r := range rows {
		if d := r.lite - base; float64(max(d, -d)) > 0.05*float64(base) {
			return fmt.Errorf("LITE writes in %s us at %d MRs, not within 5%% of %s us at 10", us(r.lite), r.mrs, us(base))
		}
	}
	if float64(v1000) < 1.5*float64(v100) {
		return fmt.Errorf("Verbs writes in %s us at 1000 MRs, under 1.5x its %s us at 100", us(v1000), us(v100))
	}
	return nil
}

// fig14Row is one cluster size of Fig 14: LT_write and LT_RPC requests
// per µs per node.
type fig14Row struct {
	nodes      int
	write, rpc float64
}

// fig14Shape: both scale near-linearly, so each per-node rate at the
// largest cluster is within 10 % of its rate at the smallest.
func fig14Shape(rows []fig14Row) error {
	lo, hi := rows[0], rows[len(rows)-1]
	for _, c := range []struct {
		name     string
		from, to float64
	}{{"LT_write", lo.write, hi.write}, {"LT_RPC", lo.rpc, hi.rpc}} {
		if d := c.to - c.from; max(d, -d) > 0.10*c.from {
			return fmt.Errorf("%s runs %.2f req/us per node at %d nodes, not within 10%% of %.2f at %d",
				c.name, c.to, hi.nodes, c.from, lo.nodes)
		}
	}
	return nil
}
