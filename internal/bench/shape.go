package bench

import (
	"fmt"
	"math"
	"time"

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

// fig6Row is one request size of Fig 6: the mean one-way write latency
// of each stack.
type fig6Row struct {
	size                 int
	verbs, kl, user, tcp simtime.Time
}

// fig6KLSlack is how far LITE's kernel-level write may sit from a bare
// Verbs write and still read as equal (paper: "LITE KL ~= Verbs").
const fig6KLSlack = 200 * time.Nanosecond

// fig6Shape: LITE KL is within 0.2 us of Verbs at every size, LITE user
// is above LITE KL (two crossings), and TCP/IP is at least 5x Verbs up
// to 4 KB, where per-message software cost dominates.
func fig6Shape(rows []fig6Row) error {
	for _, r := range rows {
		if d := r.kl - r.verbs; max(d, -d) > fig6KLSlack {
			return fmt.Errorf("at %d B LITE KL writes in %s us, not within 0.2 us of Verbs %s us", r.size, us(r.kl), us(r.verbs))
		}
		if r.user <= r.kl {
			return fmt.Errorf("at %d B LITE user writes in %s us, not above LITE KL %s us", r.size, us(r.user), us(r.kl))
		}
		if r.size <= 4096 && r.tcp < 5*r.verbs {
			return fmt.Errorf("at %d B TCP/IP takes %s us, under 5x Verbs %s us", r.size, us(r.tcp), us(r.verbs))
		}
	}
	return nil
}

// fig7Row is one request size of Fig 7: write throughput in bytes/s.
type fig7Row struct {
	size                                int
	verbs1, lite1, verbs8, lite8, tcpip float64
}

// fig7Tie is how far LITE-8 may sit below Verbs-8 and still keep up:
// the table's rounding, half of its last printed digit (0.01 GB/s).
const fig7Tie = 0.005e9

// fig7Shape: with 8 threads LITE keeps up with Verbs at every size (a
// tie at the table's precision counts) and reaches the link peak
// (within 5 % of link bytes/s) at 64 KB, and TCP/IP is the slowest
// stack at every size.
func fig7Shape(rows []fig7Row, link float64) error {
	for _, r := range rows {
		if r.lite8 < r.verbs8-fig7Tie {
			return fmt.Errorf("at %d KB LITE-8 writes %.3f GB/s, below Verbs-8 %.3f", r.size>>10, r.lite8/1e9, r.verbs8/1e9)
		}
		if r.size == 64<<10 && math.Abs(r.lite8-link) > 0.05*link {
			return fmt.Errorf("at 64 KB LITE-8 writes %.2f GB/s, not within 5%% of the %.2f GB/s link", r.lite8/1e9, link/1e9)
		}
		if low := min(r.verbs1, r.lite1, r.verbs8, r.lite8); r.tcpip >= low {
			return fmt.Errorf("at %d KB TCP/IP writes %.2f GB/s, not below every RDMA stack (slowest %.2f)", r.size>>10, r.tcpip/1e9, low/1e9)
		}
	}
	return nil
}

// fig15Row is one application of Fig 15: its performance under
// background traffic with each QoS policy, normalised to its
// performance without background traffic.
type fig15Row struct {
	app                 string
	swPri, hwSep, noQoS float64
}

// fig15Shape: for each application SW-Pri >= HW-Sep >= No QoS.
func fig15Shape(rows []fig15Row) error {
	for _, r := range rows {
		if r.swPri < r.hwSep || r.hwSep < r.noQoS {
			return fmt.Errorf("%s runs at %.3f with SW-Pri, %.3f with HW-Sep and %.3f with no QoS, not in that order",
				r.app, r.swPri, r.hwSep, r.noQoS)
		}
	}
	return nil
}

// fig18Row is one worker-node count of Fig 18: LITE-MR's and Hadoop's
// WordCount times, beside single-node Phoenix's map+reduce.
type fig18Row struct {
	nodes                                     int
	phoenixMR, liteMR, liteTotal, hadoopTotal simtime.Time
}

// fig18Shape: at every node count LITE-MR finishes before Hadoop, and
// its map+reduce phases before Phoenix's. The paper's 4.3-5.3x lead
// over Hadoop is not gated (EXPERIMENTS.md, known deviations).
func fig18Shape(rows []fig18Row) error {
	for _, r := range rows {
		if r.liteTotal >= r.hadoopTotal {
			return fmt.Errorf("at %d nodes LITE-MR takes %s ms, not below Hadoop %s ms", r.nodes, ms(r.liteTotal), ms(r.hadoopTotal))
		}
		if r.liteMR >= r.phoenixMR {
			return fmt.Errorf("at %d nodes LITE-MR maps and reduces in %s ms, not below Phoenix %s ms", r.nodes, ms(r.liteMR), ms(r.phoenixMR))
		}
	}
	return nil
}

// fig19Row is one cluster size of Fig 19: each system's PageRank time.
type fig19Row struct {
	nodes                         int
	lite, dsm, grappa, powerGraph simtime.Time
}

// fig19Shape: at every cluster size LITE-Graph < Grappa < PowerGraph and
// LITE-Graph < Graph-DSM < PowerGraph. The paper's 3.5-5.6x PowerGraph
// ratio is not gated (EXPERIMENTS.md, known deviations).
func fig19Shape(rows []fig19Row) error {
	for _, r := range rows {
		for _, mid := range []struct {
			name string
			t    simtime.Time
		}{{"Grappa", r.grappa}, {"Graph-DSM", r.dsm}} {
			if r.lite >= mid.t || mid.t >= r.powerGraph {
				return fmt.Errorf("at %d nodes LITE-Graph takes %s ms, %s %s ms and PowerGraph %s ms, not in that order",
					r.nodes, ms(r.lite), mid.name, ms(mid.t), ms(r.powerGraph))
			}
		}
	}
	return nil
}
