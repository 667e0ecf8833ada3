package mapreduce

import (
	"encoding/json"
	"fmt"
	"time"

	"lite/internal/cluster"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/tcpip"
)

// HadoopConfig extends the common cost model with the overheads that
// separate a Hadoop-style engine from LITE-MR: per-task scheduling and
// JVM overhead, disk materialization of intermediate data, and a
// TCP/IP (IPoIB) shuffle.
type HadoopConfig struct {
	Config
	// JobStartup is the fixed job submission + container launch cost.
	JobStartup simtime.Time
	// PerTask is the scheduling + task-launch overhead per task.
	PerTask simtime.Time
	// DiskBandwidth is the intermediate-data materialization rate in
	// bytes/second.
	DiskBandwidth float64
}

// DefaultHadoopConfig mirrors DefaultConfig plus Hadoop's overheads.
// The fixed costs are scaled to this repository's reduced input sizes
// (the paper's runs use multi-GB inputs where multi-second job startup
// amortizes); the shape — Hadoop several times slower than LITE-MR on
// the same input — is what carries over.
func DefaultHadoopConfig(master int, workers []int, threads, reducers int) HadoopConfig {
	return HadoopConfig{
		Config:        DefaultConfig(master, workers, threads, reducers),
		JobStartup:    120 * time.Millisecond,
		PerTask:       10 * time.Millisecond,
		DiskBandwidth: 150e6,
	}
}

const hadoopPortBase = 9000

// hadoopMsg is a control/data message between the Hadoop master and
// workers (JSON over the simulated TCP stack).
type hadoopMsg struct {
	Kind      string
	Chunks    [][2]int64
	Input     []byte `json:",omitempty"`
	Reducers  []int
	WorkerIdx int
	Workers   int
	// Data-plane messages.
	Reducer int
	Buf     []byte `json:",omitempty"`
}

// RunHadoop executes WordCount on the Hadoop-style engine: the same
// kernels, but every byte of intermediate data is written to disk and
// shuffled over the TCP/IP stack, and every task pays scheduling
// overhead.
func RunHadoop(cls *cluster.Cluster, cfg HadoopConfig, input []byte) (*Result, error) {
	res := &Result{Counts: make(map[string]int64)}
	var runErr error

	// Worker servers: one listener per worker node; each accepted
	// connection is served by its own handler thread so concurrent
	// shuffles between workers cannot deadlock the accept loops.
	states := make([]*hadoopWorkerState, len(cfg.Workers))
	for wi, w := range cfg.Workers {
		wi, w := wi, w
		st := &hadoopWorkerState{disk: make(map[string][]byte)}
		states[wi] = st
		l, err := cls.Net.Stack(w).Listen(hadoopPortBase + wi)
		if err != nil {
			return nil, err
		}
		cls.GoDaemonOn(w, "hadoop-worker", func(p *simtime.Proc) {
			for {
				conn, err := l.Accept(p)
				if err != nil {
					return
				}
				cls.GoDaemonOn(w, "hadoop-conn", func(q *simtime.Proc) {
					hadoopServeConn(q, cls, &cfg, st, wi, w, conn)
				})
			}
		})
	}

	cls.GoOn(cfg.Master, "hadoop-master", func(p *simtime.Proc) {
		runErr = hadoopMaster(p, cls, &cfg, input, res)
	})
	start := cls.Env.Now()
	if err := cls.Run(); err != nil {
		return nil, err
	}
	res.Total = cls.Env.Now() - start
	return res, runErr
}

func hadoopRPC(p *simtime.Proc, cls *cluster.Cluster, from, toNode, toPort int, msg hadoopMsg) (hadoopMsg, error) {
	conn, err := cls.Net.Stack(from).Dial(p, toNode, toPort)
	if err != nil {
		return hadoopMsg{}, err
	}
	defer conn.Close(p.Env())
	b, _ := json.Marshal(msg)
	if err := conn.Send(p, b); err != nil {
		return hadoopMsg{}, err
	}
	rb, err := conn.Recv(p)
	if err != nil {
		return hadoopMsg{}, err
	}
	var reply hadoopMsg
	err = json.Unmarshal(rb, &reply)
	return reply, err
}

func hadoopMaster(p *simtime.Proc, cls *cluster.Cluster, cfg *HadoopConfig, input []byte, res *Result) error {
	p.Sleep(cfg.JobStartup)
	chunks := splitChunks(input, cfg.ChunkSize)

	// ---- map phase: ship splits to workers over TCP ----
	t0 := p.Now()
	perWorker := make([][][2]int64, len(cfg.Workers))
	for i, ch := range chunks {
		perWorker[i%len(cfg.Workers)] = append(perWorker[i%len(cfg.Workers)], ch)
	}
	var wg simtime.WaitGroup
	errs := make([]error, len(cfg.Workers))
	wg.Add(len(cfg.Workers))
	for wi, w := range cfg.Workers {
		wi, w := wi, w
		cls.GoOn(cfg.Master, "hadoop-dispatch", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			// The input split contents travel with the task (HDFS would
			// stream them from a datanode over the same network).
			var mine []byte
			for _, ch := range perWorker[wi] {
				mine = append(mine, input[ch[0]:ch[0]+ch[1]]...)
			}
			_, errs[wi] = hadoopRPC(q, cls, cfg.Master, w, hadoopPortBase+wi, hadoopMsg{
				Kind: "map", Input: mine, Chunks: perWorker[wi],
				WorkerIdx: wi, Workers: len(cfg.Workers),
			})
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.Map = p.Now() - t0

	// ---- reduce phase ----
	t0 = p.Now()
	perRed := make([][]int, len(cfg.Workers))
	for r := 0; r < cfg.Reducers; r++ {
		perRed[r%len(cfg.Workers)] = append(perRed[r%len(cfg.Workers)], r)
	}
	var rwg simtime.WaitGroup
	rwg.Add(len(cfg.Workers))
	for wi, w := range cfg.Workers {
		wi, w := wi, w
		cls.GoOn(cfg.Master, "hadoop-dispatch", func(q *simtime.Proc) {
			defer rwg.Done(q.Env())
			_, errs[wi] = hadoopRPC(q, cls, cfg.Master, w, hadoopPortBase+wi, hadoopMsg{
				Kind: "reduce", Reducers: perRed[wi], WorkerIdx: wi, Workers: len(cfg.Workers),
			})
		})
	}
	rwg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.Reduce = p.Now() - t0

	// ---- merge: fetch all reduce outputs to the master and merge ----
	t0 = p.Now()
	var bufs [][]byte
	for wi, w := range cfg.Workers {
		for _, r := range perRed[wi] {
			reply, err := hadoopRPC(p, cls, cfg.Master, w, hadoopPortBase+wi, hadoopMsg{
				Kind: "fetch", Reducer: r,
			})
			if err != nil {
				return err
			}
			bufs = append(bufs, reply.Buf)
		}
	}
	for len(bufs) > 1 {
		var next [][]byte
		for k := 0; k+1 < len(bufs); k += 2 {
			next = append(next, mergeSorted(p, &cfg.Config, bufs[k], bufs[k+1]))
		}
		if len(bufs)%2 == 1 {
			next = append(next, bufs[len(bufs)-1])
		}
		bufs = next
	}
	res.Merge = p.Now() - t0
	parseCounts(bufs[0], res.Counts)
	return nil
}

// hadoopWorkerState is a worker's simulated local disk.
type hadoopWorkerState struct {
	disk map[string][]byte
}

// hadoopServeConn handles one request on a worker.
func hadoopServeConn(p *simtime.Proc, cls *cluster.Cluster, cfg *HadoopConfig, st *hadoopWorkerState, wi, node int, conn *tcpip.Conn) {
	b, err := conn.Recv(p)
	if err != nil {
		return
	}
	var msg hadoopMsg
	if json.Unmarshal(b, &msg) != nil {
		return
	}
	var reply hadoopMsg
	switch msg.Kind {
	case "map":
		// One task launch per chunk.
		p.Sleep(cfg.PerTask * simtime.Time(len(msg.Chunks)))
		into := make([]map[string]int64, cfg.Reducers)
		for r := range into {
			into[r] = make(map[string]int64)
		}
		var off int64
		for _, ch := range msg.Chunks {
			mapChunk(p, &cfg.Config, msg.Input[off:off+ch[1]], into)
			off += ch[1]
		}
		// Materialize map output to disk, one spill per reducer.
		for r := 0; r < cfg.Reducers; r++ {
			buf := serializeCounts(into[r])
			p.Work(params.TransferTime(int64(len(buf)), cfg.DiskBandwidth))
			st.disk[fmt.Sprintf("mo-%d-%d", msg.WorkerIdx, r)] = buf
		}
	case "reduce":
		p.Sleep(cfg.PerTask * simtime.Time(len(msg.Reducers)))
		for _, r := range msg.Reducers {
			m := make(map[string]int64)
			for w2 := 0; w2 < msg.Workers; w2++ {
				name := fmt.Sprintf("mo-%d-%d", w2, r)
				var buf []byte
				if w2 == wi {
					buf = st.disk[name]
					p.Work(params.TransferTime(int64(len(buf)), cfg.DiskBandwidth))
				} else {
					// Shuffle over TCP from the peer worker.
					peer := cfg.Workers[w2]
					rep, err := hadoopRPC(p, cls, node, peer, hadoopPortBase+w2, hadoopMsg{Kind: "fetchmap", WorkerIdx: w2, Reducer: r})
					if err != nil {
						continue
					}
					buf = rep.Buf
				}
				p.Work(cfg.MergePerKB * simtime.Time(len(buf)) / 1024)
				parseCounts(buf, m)
			}
			out := serializeCounts(m)
			p.Work(params.TransferTime(int64(len(out)), cfg.DiskBandwidth))
			st.disk[fmt.Sprintf("ro-%d", r)] = out
		}
	case "fetchmap":
		name := fmt.Sprintf("mo-%d-%d", msg.WorkerIdx, msg.Reducer)
		buf := st.disk[name]
		p.Work(params.TransferTime(int64(len(buf)), cfg.DiskBandwidth)) // disk read
		reply.Buf = buf
	case "fetch":
		buf := st.disk[fmt.Sprintf("ro-%d", msg.Reducer)]
		p.Work(params.TransferTime(int64(len(buf)), cfg.DiskBandwidth))
		reply.Buf = buf
	}
	rb, _ := json.Marshal(reply)
	_ = conn.Send(p, rb)
	conn.Close(p.Env())
}
