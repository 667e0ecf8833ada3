package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// probeSample is a reading of every cumulative probe the stack exposes
// outside obs: NIC pipeline and link busy times, work requests posted,
// and the key-value layer's own counters. Two of them bracket the
// traced window.
type probeSample struct {
	tx, rx, dma []simtime.Time // per NIC
	egress      []simtime.Time // per node's fabric egress link
	downlink    []simtime.Time // per (spine, leaf) Clos downlink
	wrs         int64          // work requests posted, all NICs
	kvServed    int64          // requests the kvstore servers handled
	kvRetries   int64
	kvFallbacks int64
	kvAttaches  int64
	kvLookups   int64
}

func sampleProbes(w *world) probeSample {
	var s probeSample
	for _, nd := range w.cls.Nodes {
		tx, rx, dma := nd.NIC.PipelineBusy()
		s.tx, s.rx, s.dma = append(s.tx, tx), append(s.rx, rx), append(s.dma, dma)
		s.egress = append(s.egress, w.cls.Fab.EgressBusy(nd.ID))
		s.wrs += nd.NIC.OpsPosted
	}
	if leafNodes := w.cls.Cfg.ClosLeafNodes; leafNodes > 0 {
		leaves := (len(w.cls.Nodes) + leafNodes - 1) / leafNodes
		for spine := 0; spine < w.cls.Cfg.ClosSpines; spine++ {
			for leaf := 0; leaf < leaves; leaf++ {
				s.downlink = append(s.downlink, w.cls.Fab.DownlinkBusy(spine, leaf))
			}
		}
	}
	if w.store != nil {
		for _, node := range w.store.ServerNodes() {
			s.kvServed += w.store.ServedOps(node)
		}
	}
	for _, k := range w.kv {
		if k != nil {
			s.kvRetries += k.DirectRetries
			s.kvFallbacks += k.DirectFallbacks
			s.kvAttaches += k.Attaches
			s.kvLookups += k.MetaLookups
		}
	}
	return s
}

// busyStats returns, for one family of busy-time probes, the summed
// busy time over the window and the busiest resource's busy share.
func busyStats(before, after []simtime.Time, window simtime.Time) (sum simtime.Time, shareMax float64) {
	for i := range after {
		d := after[i] - before[i]
		sum += d
		if s := float64(d) / float64(window); s > shareMax {
			shareMax = s
		}
	}
	return sum, shareMax
}

// layerRow is one span name's line in the layer table.
type layerRow struct {
	Name         string  `json:"name"`
	SelfUsPerOp  float64 `json:"self_us_per_op"`
	Share        float64 `json:"share_of_op"`
	SpansPerOp   float64 `json:"spans_per_op"`
	selfNs, seen int64
}

// opTrace is one traced op: its root span and everything under it.
type opTrace struct {
	root  obs.SpanView
	spans []obs.SpanView // descendants, (start, id) order
}

const unattributed = "bench.unattributed"

// attribute splits every traced op's duration over the span names
// recorded under it. Each instant of the op belongs to the most
// recently started span still open at that instant. A child starts no
// earlier than its parent, so this is "a span's duration minus the
// part its children cover"; it also settles siblings that overlap
// because one is a wait for the other (lite.rpc.wait spans the whole
// remote leg that rnic.rx, lite.rpc.server and the reply's spans then
// cover piece by piece). Every instant has exactly one owner, so the
// rows sum to the op's duration; instants only the root covers are
// bench.unattributed.
func attribute(spans []obs.SpanView) (rows []*layerRow, ops []opTrace) {
	byID := make(map[uint64]int, len(spans))
	for i, v := range spans {
		byID[v.ID] = i
	}
	// rootOf[i] is the index of span i's bench.op ancestor (itself for a
	// root), noRoot when it hangs under no op.
	const unknown, noRoot = -2, -1
	rootOf := make([]int, len(spans))
	for i := range rootOf {
		rootOf[i] = unknown
	}
	var resolve func(i int) int
	resolve = func(i int) int {
		if rootOf[i] == unknown {
			rootOf[i] = noRoot
			if spans[i].Name == "bench.op" {
				rootOf[i] = i
			} else if pi, ok := byID[spans[i].Parent]; ok {
				rootOf[i] = resolve(pi)
			}
		}
		return rootOf[i]
	}
	opIdx := make(map[int]int)
	for i, v := range spans {
		r := resolve(i)
		if r < 0 {
			continue
		}
		k, ok := opIdx[r]
		if !ok {
			k = len(ops)
			opIdx[r] = k
			ops = append(ops, opTrace{root: spans[r]})
		}
		if i != r {
			ops[k].spans = append(ops[k].spans, v)
		}
	}
	byName := make(map[string]*layerRow)
	row := func(name string) *layerRow {
		r := byName[name]
		if r == nil {
			r = &layerRow{Name: name}
			byName[name] = r
			rows = append(rows, r)
		}
		return r
	}
	var cuts []simtime.Time
	for _, o := range ops {
		lo, hi := o.root.Start, o.root.End
		cuts = append(cuts[:0], lo, hi)
		for _, v := range o.spans {
			row(v.Name).seen++
			if v.Start > lo && v.Start < hi {
				cuts = append(cuts, v.Start)
			}
			if v.End > lo && v.End < hi {
				cuts = append(cuts, v.End)
			}
		}
		slices.Sort(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if a == b {
				continue
			}
			owner := obs.SpanView{Name: unattributed, Start: -1}
			for _, v := range o.spans {
				if v.Start <= a && v.End >= b && (v.Start > owner.Start || (v.Start == owner.Start && v.ID > owner.ID)) {
					owner = v
				}
			}
			row(owner.Name).selfNs += int64(b - a)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, ops
}

// layersFile is what benchmark/out/<workload>.layers.json holds.
type layersFile struct {
	Workload        string            `json:"workload"`
	Seed            uint64            `json:"seed"`
	TracedOps       int               `json:"traced_ops"`
	MeanOpUs        float64           `json:"mean_op_us"`
	AttributedShare float64           `json:"attributed_share"`
	Layers          []*layerRow       `json:"layers"`
	Counters        map[string]int64  `json:"counters"`
	Metrics         map[string]metric `json:"metrics"`
}

// writeTrace stores the layer table and the full span trees of the
// slowest ops under dir.
func writeTrace(dir string, lf *layersFile, ops []opTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, lf.Workload+".layers.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	slow := append([]opTrace(nil), ops...)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].root.Dur() > slow[j].root.Dur() })
	if len(slow) > slowestOps {
		slow = slow[:slowestOps]
	}
	f, err := os.Create(filepath.Join(dir, lf.Workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for rank, o := range slow {
		for _, v := range append([]obs.SpanView{o.root}, o.spans...) {
			line, err := json.Marshal(struct {
				Rank int `json:"slow_rank"`
				obs.SpanView
			}{rank + 1, v})
			if err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(bw, "%s\n", line)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const slowestOps = 10
