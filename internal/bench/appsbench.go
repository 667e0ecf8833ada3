package bench

import (
	"fmt"

	"lite/internal/apps/graph"
	"lite/internal/apps/mapreduce"
	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
	"lite/internal/workload"
)

func init() {
	register("fig18", "MapReduce WordCount: Phoenix vs LITE-MR (2/4/8 nodes) vs Hadoop", fig18)
	register("fig19", "PageRank: LITE-Graph vs Graph-DSM vs Grappa vs PowerGraph", fig19)
}

func fig18() (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "WordCount run time (equal total threads; synthetic Zipf corpus)",
		Header: []string{"System", "Map (s)", "Reduce (s)", "Merge (s)", "Total (s)"},
	}
	const totalThreads = 8
	const reducers = 8
	input := workload.NewCorpus(42, 30000).Generate(16 << 20)
	row := func(system string, res *mapreduce.Result) {
		secs := func(d simtime.Time) string { return fmt.Sprintf("%.3f", d.Seconds()) }
		t.AddRow(system, secs(res.Map), secs(res.Reduce), secs(res.Merge), secs(res.Total))
	}
	var rows []fig18Row

	// Phoenix: single node, all threads.
	cls, err := newBare(1)
	if err != nil {
		return nil, err
	}
	res, err := mapreduce.RunPhoenix(cls, mapreduce.DefaultConfig(0, []int{0}, totalThreads, reducers), 0, input)
	if err != nil {
		return nil, err
	}
	row("Phoenix (1 node)", res)
	phoenix := res.Map + res.Reduce
	// LITE-MR and Hadoop at 2, 4, 8 worker nodes.
	for _, workers := range []int{2, 4, 8} {
		nodes := make([]int, workers)
		for i := range nodes {
			nodes[i] = i + 1
		}
		threads := max(totalThreads/workers, 1)
		cls, dep, err := newLITE(workers + 1)
		if err != nil {
			return nil, err
		}
		res, err := mapreduce.RunLITE(cls, dep, mapreduce.DefaultConfig(0, nodes, threads, reducers), input)
		if err != nil {
			return nil, err
		}
		row(fmt.Sprintf("LITE-MR (%d nodes)", workers), res)
		r := fig18Row{nodes: workers, phoenixMR: phoenix, liteMR: res.Map + res.Reduce, liteTotal: res.Total}
		hcls, err := newBare(workers + 1)
		if err != nil {
			return nil, err
		}
		if res, err = mapreduce.RunHadoop(hcls, mapreduce.DefaultHadoopConfig(0, nodes, threads, reducers), input); err != nil {
			return nil, err
		}
		row(fmt.Sprintf("Hadoop (%d nodes)", workers), res)
		r.hadoopTotal = res.Total
		rows = append(rows, r)
	}
	t.Note("paper: LITE-MR beats Hadoop 4.3-5.3x; beats Phoenix in map+reduce, loses the merge phase")
	return t, fig18Shape(rows)
}

func fig19() (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "PageRank run time (power-law graph, 10 iterations, 4 threads/node)",
		Header: []string{"Nodes", "LITE-Graph (ms)", "Graph-DSM (ms)", "Grappa (ms)", "PowerGraph (ms)", "PG/LITE"},
	}
	g := workload.NewPowerLawGraph(7, 60000, 900000)
	const iters = 10
	var rows []fig19Row
	for _, n := range []int{4, 7} {
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		cfg := graph.DefaultConfig(nodes, 4, iters)
		// LITE-Graph, Graph-DSM, Grappa, PowerGraph: each on a fresh cluster.
		var times []simtime.Time
		for _, run := range []func(*cluster.Cluster, *lite.Deployment, graph.Config, *workload.Graph) (*graph.Result, error){graph.RunLITE, graph.RunDSM} {
			cls, dep, err := newLITE(n)
			if err != nil {
				return nil, err
			}
			res, err := run(cls, dep, cfg, g)
			if err != nil {
				return nil, err
			}
			times = append(times, res.Time)
		}
		for _, prm := range []graph.MsgEngineParams{graph.GrappaParams(), graph.PowerGraphParams()} {
			cls, err := newBare(n)
			if err != nil {
				return nil, err
			}
			res, err := graph.RunMsgEngine(cls, cfg, prm, g)
			if err != nil {
				return nil, err
			}
			times = append(times, res.Time)
		}
		t.AddRow(fmt.Sprintf("%d", n), ms(times[0]), ms(times[1]), ms(times[2]), ms(times[3]),
			fmt.Sprintf("%.1fx", float64(times[3])/float64(times[0])))
		rows = append(rows, fig19Row{nodes: n, lite: times[0], dsm: times[1], grappa: times[2], powerGraph: times[3]})
	}
	t.Note("paper: LITE-Graph outperforms PowerGraph 3.5-5.6x and beats Grappa; Graph-DSM sits between LITE-Graph and the baselines")
	return t, fig19Shape(rows)
}
