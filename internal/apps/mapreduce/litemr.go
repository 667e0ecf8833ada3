package mapreduce

import (
	"encoding/json"
	"fmt"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
)

// mrFn is the RPC function id LITE-MR workers serve.
const mrFn = lite.FirstUserFunc + 4

// taskMsg is a worker assignment (JSON over LT_RPC, as the paper's
// LITE-MR exchanges control messages with LT_RPC and bulk data with
// LT_read).
type taskMsg struct {
	Kind      string     // "map", "reduce", "merge", "quit"
	RunID     int        // LMR name namespace
	Attempt   int        // job attempt; names are namespaced per attempt
	InputName string     // map: input LMR name
	Chunks    [][2]int64 // map: chunk (offset, length) pairs
	WorkerIdx int        // map: this worker's index for output naming
	Workers   int        // total workers (reduce reads all their outputs)
	Reducers  []int      // reduce: reducer ids assigned to this worker
	Merges    [][3]string
}

type taskReply struct {
	Names []string
	Err   string // non-empty: the worker could not complete the task
}

// Intermediate and output LMR names carry the run id and the attempt
// number, so a re-executed job never collides with names published by
// a partially completed earlier attempt.
func mapOutName(runID, attempt, worker, reducer int) string {
	return fmt.Sprintf("mr%d-a%d-mo-%d-%d", runID, attempt, worker, reducer)
}
func reduceOutName(runID, attempt, reducer int) string {
	return fmt.Sprintf("mr%d-a%d-ro-%d", runID, attempt, reducer)
}
func mergeOutName(runID, attempt, round, k int) string {
	return fmt.Sprintf("mr%d-a%d-mg-%d-%d", runID, attempt, round, k)
}

// RunLITE executes WordCount on LITE-MR and returns the result with
// its phase breakdown. It spawns its own processes and runs the
// cluster simulation to completion.
//
// When cfg.TaskTimeout is set, the run degrades gracefully under node
// failures: dispatches go through the bounded retry layer, a worker
// declared dead is dropped from the pool, and the whole job re-executes
// on the survivors under a fresh attempt namespace. Workers also
// re-arm their serving loop if their node restarts mid-run.
func RunLITE(cls *cluster.Cluster, dep *lite.Deployment, cfg Config, input []byte) (*Result, error) {
	runID := int(dep.NextAppSeq()) // distinguishes LMR names across runs on dep
	res := &Result{Counts: make(map[string]int64)}
	var runErr error

	// Worker servers.
	isWorker := make(map[int]bool, len(cfg.Workers))
	for _, w := range cfg.Workers {
		w := w
		isWorker[w] = true
		inst := dep.Instance(w)
		if err := inst.RegisterRPC(mrFn); err != nil {
			// Already registered by a previous run on this cluster.
			_ = err
		}
		cls.GoDaemonOn(w, "mr-worker", func(p *simtime.Proc) {
			liteWorkerLoop(p, cls, dep, &cfg, w)
		})
	}
	// A crashed worker's serving loop exits with ErrNodeDead; re-arm it
	// when the node comes back so a restarted worker can serve again.
	cls.OnNodeUp(func(p *simtime.Proc, node int) {
		if !isWorker[node] {
			return
		}
		cls.GoDaemonOn(node, "mr-worker", func(q *simtime.Proc) {
			liteWorkerLoop(q, cls, dep, &cfg, node)
		})
	})

	cls.GoOn(cfg.Master, "mr-master", func(p *simtime.Proc) {
		runErr = liteMaster(p, cls, dep, &cfg, runID, input, res)
	})
	start := cls.Env.Now()
	if err := cls.Run(); err != nil {
		return nil, err
	}
	res.Total = cls.Env.Now() - start
	return res, runErr
}

// liteMaster runs the job, re-executing it on the surviving workers
// when an attempt is lost to a node failure. Intermediate data on a
// dead worker is unrecoverable (every reducer reads every mapper, so
// the re-execution closure is the whole job), which is why degradation
// restarts the job rather than individual tasks.
func liteMaster(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, runID int, input []byte, res *Result) error {
	c := dep.Instance(cfg.Master).KernelClient()
	inputName := fmt.Sprintf("mr%d-input", runID)
	in, err := c.Malloc(p, int64(len(input)), inputName, lite.PermRead)
	if err != nil {
		return err
	}
	if err := c.Write(p, in, 0, input); err != nil {
		return err
	}

	workers := append([]int(nil), cfg.Workers...)
	maxAttempts := len(workers)
	if cfg.TaskTimeout <= 0 {
		maxAttempts = 1 // legacy mode: no failure handling
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		err := liteRunJob(p, cls, dep, cfg, runID, attempt, workers, inputName, input, res)
		if err == nil {
			return nil
		}
		lastErr = err
		// Drop workers declared dead and retry on the survivors.
		alive := workers[:0]
		for _, w := range workers {
			if !c.NodeDead(w) {
				alive = append(alive, w)
			}
		}
		workers = alive
		if len(workers) == 0 {
			return fmt.Errorf("litemr: no surviving workers: %w", err)
		}
		if attempt < maxAttempts-1 {
			// Pace re-execution: an attempt launched immediately after a
			// node failure burns its budget before detection converges
			// and before a restarting node is back, so later attempts
			// wait exponentially longer — up to one task timeout — for
			// the cluster to recover.
			backoff := simtime.Time(cfg.TaskTimeout) / 4 << uint(attempt)
			if backoff > simtime.Time(cfg.TaskTimeout) {
				backoff = simtime.Time(cfg.TaskTimeout)
			}
			p.Sleep(backoff)
		}
	}
	return fmt.Errorf("litemr: job failed after %d attempts: %w", maxAttempts, lastErr)
}

// liteRunJob runs one complete map/reduce/merge attempt on the given
// worker set. Any failure (dispatch error, worker-reported error, or a
// failed final read) aborts the attempt.
func liteRunJob(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, runID, attempt int, workers []int, inputName string, input []byte, res *Result) error {
	c := dep.Instance(cfg.Master).KernelClient()
	chunks := splitChunks(input, cfg.ChunkSize)

	// ---- map phase ----
	t0 := p.Now()
	perWorker := make([][][2]int64, len(workers))
	for i, ch := range chunks {
		w := i % len(workers)
		perWorker[w] = append(perWorker[w], ch)
	}
	_, err := broadcastTasks(p, cls, dep, cfg, workers, func(wi int) taskMsg {
		return taskMsg{
			Kind: "map", RunID: runID, Attempt: attempt, InputName: inputName,
			Chunks: perWorker[wi], WorkerIdx: wi, Workers: len(workers),
		}
	})
	if err != nil {
		return err
	}
	res.Map = p.Now() - t0

	// ---- reduce phase ----
	t0 = p.Now()
	perRed := make([][]int, len(workers))
	for r := 0; r < cfg.Reducers; r++ {
		w := r % len(workers)
		perRed[w] = append(perRed[w], r)
	}
	replies, err := broadcastTasks(p, cls, dep, cfg, workers, func(wi int) taskMsg {
		return taskMsg{Kind: "reduce", RunID: runID, Attempt: attempt, Reducers: perRed[wi], Workers: len(workers)}
	})
	if err != nil {
		return err
	}
	var names []string
	for _, r := range replies {
		names = append(names, r.Names...)
	}
	res.Reduce = p.Now() - t0

	// ---- merge phase: rounds of 2-way merges ----
	t0 = p.Now()
	round := 0
	for len(names) > 1 {
		var merges [][3]string
		var next []string
		for k := 0; k+1 < len(names); k += 2 {
			out := mergeOutName(runID, attempt, round, k/2)
			merges = append(merges, [3]string{names[k], names[k+1], out})
			next = append(next, out)
		}
		if len(names)%2 == 1 {
			next = append(next, names[len(names)-1])
		}
		perMerge := make([][][3]string, len(workers))
		for i, m := range merges {
			perMerge[i%len(workers)] = append(perMerge[i%len(workers)], m)
		}
		if _, err := broadcastTasks(p, cls, dep, cfg, workers, func(wi int) taskMsg {
			return taskMsg{Kind: "merge", RunID: runID, Attempt: attempt, Merges: perMerge[wi]}
		}); err != nil {
			return err
		}
		names = next
		round++
	}
	res.Merge = p.Now() - t0

	// Read the final result.
	final, err := c.Map(p, names[0])
	if err != nil {
		return err
	}
	sz := lmrSize(dep, names[0])
	buf := make([]byte, sz)
	if err := c.Read(p, final, 0, buf); err != nil {
		return err
	}
	for k := range res.Counts {
		delete(res.Counts, k) // discard a partial earlier attempt
	}
	parseCounts(buf, res.Counts)
	return nil
}

// broadcastTasks sends one task message to every worker in parallel
// and collects the replies. With TaskTimeout set, dispatches go
// through the bounded retry layer so a crashed worker surfaces as
// ErrNodeDead (or a timeout) instead of hanging the job.
func broadcastTasks(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, workers []int, mk func(wi int) taskMsg) ([]taskReply, error) {
	replies := make([]taskReply, len(workers))
	errs := make([]error, len(workers))
	var wg simtime.WaitGroup
	wg.Add(len(workers))
	for wi, w := range workers {
		wi, w := wi, w
		cls.GoOn(cfg.Master, "mr-dispatch", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			c := dep.Instance(cfg.Master).KernelClient()
			msg, _ := json.Marshal(mk(wi))
			var out []byte
			var err error
			if cfg.TaskTimeout > 0 {
				out, err = c.RPCRetryT(q, w, mrFn, msg, 1<<20, cfg.TaskTimeout)
			} else {
				out, err = c.RPCT(q, w, mrFn, msg, 1<<20, 0)
			}
			if err != nil {
				errs[wi] = err
				return
			}
			if err := json.Unmarshal(out, &replies[wi]); err != nil {
				errs[wi] = err
				return
			}
			if replies[wi].Err != "" {
				errs[wi] = fmt.Errorf("worker %d: %s", w, replies[wi].Err)
			}
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return replies, nil
}

// lmrSize looks up an LMR's size by name via the deployment directory
// (stand-in for an out-of-band size exchange).
func lmrSize(dep *lite.Deployment, name string) int64 {
	return dep.LMRSizeByName(name)
}

// liteWorkerLoop serves LITE-MR task RPCs on one worker node.
//
// Dispatches are deduplicated: the retry layer can deliver the same
// task twice (the first reply lost or timed out), and re-executing it
// would collide on the already-published output LMR names. A completed
// task's reply is cached by its exact message bytes and replayed on a
// duplicate — at-most-once execution per worker incarnation.
func liteWorkerLoop(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, node int) {
	c := dep.Instance(node).KernelClient()
	done := make(map[string][]byte)
	for {
		call, err := c.RecvRPC(p, mrFn)
		if err != nil {
			return
		}
		if out, ok := done[string(call.Input)]; ok {
			_ = c.ReplyRPC(p, call, out)
			continue
		}
		var t taskMsg
		if err := json.Unmarshal(call.Input, &t); err != nil {
			_ = c.ReplyRPC(p, call, nil)
			continue
		}
		var reply taskReply
		var terr error
		switch t.Kind {
		case "map":
			reply.Names, terr = liteMapPhase(p, cls, dep, cfg, node, &t)
		case "reduce":
			reply.Names, terr = liteReducePhase(p, cls, dep, cfg, node, &t)
		case "merge":
			for _, m := range t.Merges {
				if terr = liteMerge(p, dep, cfg, node, m[0], m[1], m[2]); terr != nil {
					break
				}
				reply.Names = append(reply.Names, m[2])
			}
		}
		if terr != nil {
			reply = taskReply{Err: terr.Error()}
		}
		out, _ := json.Marshal(reply)
		if terr == nil {
			// Only successes are replayable; a failed task may be
			// legitimately retried.
			done[string(call.Input)] = out
		}
		_ = c.ReplyRPC(p, call, out)
	}
}

// liteMapPhase runs this worker's map tasks on ThreadsPerWorker
// threads, combines per-reducer output, and publishes one LMR per
// reducer. Any I/O failure is reported to the master rather than
// swallowed, so a lost input or a dead peer aborts the attempt instead
// of silently undercounting.
func liteMapPhase(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, node int, t *taskMsg) ([]string, error) {
	c := dep.Instance(node).KernelClient()
	in, err := c.Map(p, t.InputName)
	if err != nil {
		return nil, fmt.Errorf("map input %q: %w", t.InputName, err)
	}
	// Per-thread per-reducer maps; threads pull chunks from a shared
	// cursor.
	threads := cfg.ThreadsPerWorker
	perThread := make([][]map[string]int64, threads)
	threadErrs := make([]error, threads)
	cursor := 0
	var wg simtime.WaitGroup
	wg.Add(threads)
	for th := 0; th < threads; th++ {
		th := th
		perThread[th] = make([]map[string]int64, cfg.Reducers)
		for r := range perThread[th] {
			perThread[th][r] = make(map[string]int64)
		}
		cls.GoOn(node, "mr-map", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			tc := dep.Instance(node).KernelClient()
			for {
				if cursor >= len(t.Chunks) {
					return
				}
				ch := t.Chunks[cursor]
				cursor++
				buf := make([]byte, ch[1])
				if err := tc.Read(q, in, ch[0], buf); err != nil {
					threadErrs[th] = fmt.Errorf("read chunk @%d: %w", ch[0], err)
					return
				}
				mapChunk(q, cfg, buf, perThread[th])
			}
		})
	}
	wg.Wait(p)
	for _, err := range threadErrs {
		if err != nil {
			return nil, err
		}
	}
	// Combine thread-local results into node-level finalized buffers
	// (the paper: a worker combines intermediate results after
	// completing all its map tasks).
	names := make([]string, 0, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		m := make(map[string]int64)
		for th := 0; th < threads; th++ {
			for w, cnt := range perThread[th][r] {
				m[w] += cnt
			}
		}
		buf := serializeCounts(m)
		p.Work(cfg.MergePerKB * simtime.Time(len(buf)) / 1024)
		name := mapOutName(t.RunID, t.Attempt, t.WorkerIdx, r)
		h, err := c.Malloc(p, int64(len(buf))+1, name, lite.PermRead)
		if err != nil {
			return nil, fmt.Errorf("publish %q: %w", name, err)
		}
		if err := c.Write(p, h, 0, buf); err != nil {
			return nil, fmt.Errorf("write %q: %w", name, err)
		}
		names = append(names, name)
	}
	return names, nil
}

// liteReducePhase pulls every worker's finalized buffer for this
// worker's reducers with one-sided LT_reads and merges them. A mapper
// output that cannot be resolved or read (its home node died) is a
// hard error — skipping it would drop that mapper's counts from the
// result.
func liteReducePhase(p *simtime.Proc, cls *cluster.Cluster, dep *lite.Deployment, cfg *Config, node int, t *taskMsg) ([]string, error) {
	threads := cfg.ThreadsPerWorker
	var wg simtime.WaitGroup
	names := make([]string, len(t.Reducers))
	threadErrs := make([]error, threads)
	cursor := 0
	wg.Add(threads)
	for th := 0; th < threads; th++ {
		th := th
		cls.GoOn(node, "mr-reduce", func(q *simtime.Proc) {
			defer wg.Done(q.Env())
			tc := dep.Instance(node).KernelClient()
			for {
				if cursor >= len(t.Reducers) {
					return
				}
				idx := cursor
				cursor++
				r := t.Reducers[idx]
				m := make(map[string]int64)
				for w := 0; w < t.Workers; w++ {
					name := mapOutName(t.RunID, t.Attempt, w, r)
					h, err := tc.Map(q, name)
					if err != nil {
						threadErrs[th] = fmt.Errorf("map %q: %w", name, err)
						return
					}
					sz := lmrSize(dep, name)
					buf := make([]byte, sz)
					if err := tc.Read(q, h, 0, buf); err != nil {
						threadErrs[th] = fmt.Errorf("read %q: %w", name, err)
						return
					}
					q.Work(cfg.MergePerKB * simtime.Time(len(buf)) / 1024)
					parseCounts(buf, m)
					_ = tc.Unmap(q, h)
				}
				buf := serializeCounts(m)
				name := reduceOutName(t.RunID, t.Attempt, r)
				h, err := tc.Malloc(q, int64(len(buf))+1, name, lite.PermRead)
				if err != nil {
					threadErrs[th] = fmt.Errorf("publish %q: %w", name, err)
					return
				}
				if err := tc.Write(q, h, 0, buf); err != nil {
					threadErrs[th] = fmt.Errorf("write %q: %w", name, err)
					return
				}
				names[idx] = name
			}
		})
	}
	wg.Wait(p)
	for _, err := range threadErrs {
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// liteMerge two-way merges two named buffers into a new named buffer,
// reading both with LT_read.
func liteMerge(p *simtime.Proc, dep *lite.Deployment, cfg *Config, node int, a, b, out string) error {
	c := dep.Instance(node).KernelClient()
	read := func(name string) ([]byte, error) {
		h, err := c.Map(p, name)
		if err != nil {
			return nil, fmt.Errorf("map %q: %w", name, err)
		}
		buf := make([]byte, lmrSize(dep, name))
		if err := c.Read(p, h, 0, buf); err != nil {
			return nil, fmt.Errorf("read %q: %w", name, err)
		}
		_ = c.Unmap(p, h)
		return buf, nil
	}
	av, err := read(a)
	if err != nil {
		return err
	}
	bv, err := read(b)
	if err != nil {
		return err
	}
	merged := mergeSorted(p, cfg, av, bv)
	h, err := c.Malloc(p, int64(len(merged))+1, out, lite.PermRead)
	if err != nil {
		return fmt.Errorf("publish %q: %w", out, err)
	}
	if err := c.Write(p, h, 0, merged); err != nil {
		return fmt.Errorf("write %q: %w", out, err)
	}
	return nil
}
