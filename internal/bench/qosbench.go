package bench

import (
	"fmt"
	"time"

	"lite/internal/apps/graph"
	"lite/internal/apps/litelog"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
	"lite/internal/workload"
)

func init() {
	register("fig15", "QoS with real applications: LITE-Log and LITE-Graph vs background traffic", fig15)
	register("fig16", "QoS under the synthetic high/low-priority mix (timeline)", fig16)
}

// backgroundWriters floods low-priority 64KB writes from srcs to dst
// until stop.
func backgroundWriters(cls *cluster.Cluster, dep *lite.Deployment, srcs []int, dst int, stop *bool) {
	for _, s := range srcs {
		s := s
		cls.GoDaemonOn(s, "bg-writer", func(p *simtime.Proc) {
			c := dep.Instance(s).KernelClient().SetPriority(lite.PriLow)
			h, err := c.MallocAt(p, []int{dst}, 1<<20, "", lite.PermRead|lite.PermWrite)
			if err != nil {
				return
			}
			buf := make([]byte, 64<<10)
			for !*stop {
				_ = c.Write(p, h, 0, buf)
			}
		})
	}
}

// qosCluster boots n LITE nodes under QoS mode with four QPs per pair:
// three for high priority, one for low (6.2). With bg set, nodes 2 and
// 3 flood node 0 with low-priority writes until *stop.
func qosCluster(n int, mode lite.QoSMode, bg bool, stop *bool) (*cluster.Cluster, *lite.Deployment, error) {
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 4
	cls, dep, err := newLITEOpts(n, opts)
	if err != nil {
		return nil, nil, err
	}
	dep.SetQoSMode(mode)
	if bg {
		backgroundWriters(cls, dep, []int{2, 3}, 0, stop)
	}
	return cls, dep, nil
}

// logRateUnder measures LITE-Log commit throughput at node 1 (log at
// node 0) under the given QoS mode with background traffic.
func logRateUnder(mode lite.QoSMode, withBG bool) (float64, error) {
	stop := false
	cls, dep, err := qosCluster(4, mode, withBG, &stop)
	if err != nil {
		return 0, err
	}
	const ops = 300
	var rate float64
	err = runProc(cls, 1, "committer", func(p *simtime.Proc) error {
		c := dep.Instance(1).KernelClient() // high priority by default
		lg, err := litelog.Create(p, c, 0, 32<<20, "qos-log")
		if err != nil {
			return err
		}
		entry := [][]byte{make([]byte, 16)}
		p.Sleep(50 * time.Microsecond) // let background traffic ramp
		start := p.Now()
		for i := 0; i < ops; i++ {
			if _, err := lg.Append(p, entry); err != nil {
				return err
			}
		}
		rate = float64(ops) / (p.Now() - start).Seconds()
		stop = true
		return nil
	})
	return rate, err
}

// graphRateUnder measures LITE-Graph PageRank speed (iterations/s)
// under the given QoS mode with background traffic.
func graphRateUnder(mode lite.QoSMode, withBG bool) (float64, error) {
	stop := false
	cls, dep, err := qosCluster(4, mode, withBG, &stop)
	if err != nil {
		return 0, err
	}
	g := workload.NewPowerLawGraph(5, 8000, 80000)
	cfg := graph.DefaultConfig([]int{0, 1, 2, 3}, 2, 6)
	res, err := graph.RunLITE(cls, dep, cfg, g)
	stop = true
	if err != nil {
		return 0, err
	}
	return float64(cfg.Iterations) / res.Time.Seconds(), nil
}

func fig15() (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "QoS with real applications (performance normalized to no-background)",
		Header: []string{"App", "No b/g traffic", "SW-Pri", "HW-Sep", "No QoS"},
	}
	type runFn func(lite.QoSMode, bool) (float64, error)
	var rows []fig15Row
	for _, app := range []struct {
		name string
		run  runFn
	}{{"LITE-Log", logRateUnder}, {"LITE-Graph", graphRateUnder}} {
		base, err := app.run(lite.QoSNone, false)
		if err != nil {
			return nil, err
		}
		r := fig15Row{app: app.name}
		row := []string{app.name, "1.00"}
		for _, m := range []struct {
			mode  lite.QoSMode
			ratio *float64
		}{{lite.QoSSWPri, &r.swPri}, {lite.QoSHWSep, &r.hwSep}, {lite.QoSNone, &r.noQoS}} {
			v, err := app.run(m.mode, true)
			if err != nil {
				return nil, err
			}
			*m.ratio = v / base
			row = append(row, fmt.Sprintf("%.2f", v/base))
		}
		t.AddRow(row...)
		rows = append(rows, r)
	}
	t.Note("paper: SW-Pri keeps high-priority apps near their no-background performance; HW-Sep is worse; no QoS worst")
	return t, fig15Shape(rows)
}

// fig16 reproduces the synthetic QoS timeline: low-priority writers
// run from t=0; high-priority writers join later; throughput is
// bucketed over time for each policy.
func fig16() (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "QoS timeline, synthetic mix (GB/s per 10ms bucket; high joins at 20ms)",
		Header: []string{"t (ms)", "NoQoS total", "NoQoS high", "HW-Sep total", "HW-Sep high", "SW-Pri total", "SW-Pri high"},
	}
	const buckets = 8
	const bucketLen = 10 * time.Millisecond
	type series struct{ total, high [buckets]int64 }
	runPolicy := func(mode lite.QoSMode) (*series, error) {
		cls, dep, err := qosCluster(3, mode, false, nil)
		if err != nil {
			return nil, err
		}
		s := &series{}
		record := func(at simtime.Time, n int64, high bool) {
			b := int(at / bucketLen)
			if b >= 0 && b < buckets {
				s.total[b] += n
				if high {
					s.high[b] += n
				}
			}
		}
		// Ten low-priority writers on node 1 from t=0, then ten
		// high-priority ones on node 2 from 20ms, all into node 0.
		for _, class := range []struct {
			name      string
			node, ops int
			pri       lite.Priority
			join      time.Duration
		}{{"low", 1, 1200, lite.PriLow, 0}, {"high", 2, 800, lite.PriHigh, 20 * time.Millisecond}} {
			high := class.pri == lite.PriHigh
			for th := 0; th < 10; th++ {
				cls.GoOn(class.node, class.name, func(p *simtime.Proc) {
					c := dep.Instance(class.node).KernelClient().SetPriority(class.pri)
					h, err := c.MallocAt(p, []int{0}, 1<<20, "", lite.PermRead|lite.PermWrite)
					if err != nil {
						return
					}
					if class.join > 0 {
						p.Sleep(class.join)
					}
					buf := make([]byte, 8<<10)
					for i := 0; i < class.ops; i++ {
						if err := c.Write(p, h, 0, buf); err != nil {
							return
						}
						record(p.Now(), int64(len(buf)), high)
					}
				})
			}
		}
		if err := cls.Run(); err != nil {
			return nil, err
		}
		return s, nil
	}

	var all []*series
	for _, mode := range []lite.QoSMode{lite.QoSNone, lite.QoSHWSep, lite.QoSSWPri} {
		s, err := runPolicy(mode)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	for b := 0; b < buckets; b++ {
		row := []string{fmt.Sprintf("%d-%d", b*10, b*10+10)}
		for _, s := range all {
			row = append(row, gbps(s.total[b], bucketLen), gbps(s.high[b], bucketLen))
		}
		t.AddRow(row...)
	}
	t.Note("paper: SW-Pri protects high-priority bandwidth while keeping total near no-QoS; HW-Sep has the lowest total")
	return t, nil
}
