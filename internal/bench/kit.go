package bench

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/rpcbase"
	"lite/internal/simtime"
)

// The measurement kit: the loops the experiments time their figures
// with, written once. An RPC scheme boots a cluster and hands clients a
// call function; meanLatency and timeEach, window and gapCPU are the
// three ways a figure is measured (latency of back-to-back ops,
// closed-loop span over many threads, CPU at fixed gaps); replay,
// closCfg, hubOpts and resubmit are what the 500-node experiments share.

// benchFn is the RPC function the echo servers bind.
const benchFn = lite.FirstUserFunc

// rpcInput builds an inputSize-byte request whose first three bytes ask
// the echo server for a replySize-byte reply.
func rpcInput(inputSize, replySize int) []byte {
	in := make([]byte, inputSize)
	in[0] = byte(replySize)
	in[1] = byte(replySize >> 8)
	in[2] = byte(replySize >> 16)
	return in
}

// echoReply is every echo server's handler: the reply rpcInput asked for.
func echoReply(in []byte) []byte {
	return make([]byte, int(in[0])|int(in[1])<<8|int(in[2])<<16)
}

// serveEcho starts workers LITE kernel threads at node answering
// benchFn with echoReply.
func serveEcho(dep *lite.Deployment, node, workers int) error {
	return dep.Instance(node).ServeRPC(benchFn, workers, func(_ *simtime.Proc, c *lite.Call) []byte {
		return echoReply(c.Input)
	})
}

// rpcCall issues one request; maxReply bounds the reply (LITE sizes its
// reply buffer by it, the baselines ignore it).
type rpcCall func(p *simtime.Proc, in []byte, maxReply int64) error

// rpcScheme is one RPC implementation under test. It builds a fresh
// 2-node cluster, starts the scheme's echo servers on node 1 and returns
// the cluster with a dial function; a client on node 0 dials once for
// its own call function. Dialing takes no virtual time, and a failed
// dial yields a call that returns its error.
type rpcScheme func() (*cluster.Cluster, func() rpcCall, error)

// liteRPC is LT_RPC on a cluster built with cfg and opts: workers kernel
// threads serve node 1, and clients call through a user-level client if
// user is set, a kernel-level one otherwise.
func liteRPC(cfg params.Config, opts lite.Options, workers int, user bool) rpcScheme {
	return func() (*cluster.Cluster, func() rpcCall, error) {
		cls, dep, err := newLITECfg(&cfg, 2, opts)
		if err != nil {
			return nil, nil, err
		}
		if err := serveEcho(dep, 1, workers); err != nil {
			return nil, nil, err
		}
		return cls, func() rpcCall {
			c := dep.Instance(0).KernelClient()
			if user {
				c = dep.Instance(0).UserClient()
			}
			return func(p *simtime.Proc, in []byte, maxReply int64) error {
				_, err := c.RPC(p, 1, benchFn, in, maxReply)
				return err
			}
		}, nil
	}
}

// defaultLITE is liteRPC under the default cost model and options.
func defaultLITE(workers int, user bool) rpcScheme {
	return liteRPC(params.Default(), lite.DefaultOptions(), workers, user)
}

// farmRPC is FaRM-style RPC over two RDMA writes between one fixed pair
// of endpoints; its responder serves exactly calls requests and exits.
func farmRPC(calls int) rpcScheme {
	return func() (*cluster.Cluster, func() rpcCall, error) {
		cls, err := newBare(2)
		if err != nil {
			return nil, nil, err
		}
		pair, err := rpcbase.NewFaRMPair(cls, 0, 1)
		if err != nil {
			return nil, nil, err
		}
		cls.GoOn(1, "responder", func(p *simtime.Proc) {
			e := pair.End(1)
			for i := 0; i < calls; i++ {
				in, err := e.Recv(p)
				if err != nil {
					return
				}
				if err := e.Send(p, echoReply(in)); err != nil {
					return
				}
			}
		})
		return cls, func() rpcCall {
			e := pair.End(0)
			return func(p *simtime.Proc, in []byte, _ int64) error {
				if err := e.Send(p, in); err != nil {
					return err
				}
				_, err := e.Recv(p)
				return err
			}
		}, nil
	}
}

// herdRPC is HERD with workers server threads.
func herdRPC(workers int) rpcScheme {
	return func() (*cluster.Cluster, func() rpcCall, error) {
		cls, err := newBare(2)
		if err != nil {
			return nil, nil, err
		}
		srv := rpcbase.StartHERD(cls, 1, workers, echoReply)
		return cls, func() rpcCall { return baselineCall(rpcbase.ConnectHERD(cls, srv, 0)) }, nil
	}
}

// fasstRPC is FaSST, whose master poller runs handlers inline: one
// server thread.
func fasstRPC() rpcScheme {
	return func() (*cluster.Cluster, func() rpcCall, error) {
		cls, err := newBare(2)
		if err != nil {
			return nil, nil, err
		}
		srv, err := rpcbase.StartFaSST(cls, 1, 1, echoReply)
		if err != nil {
			return nil, nil, err
		}
		return cls, func() rpcCall { return baselineCall(rpcbase.ConnectFaSST(cls, srv, 0)) }, nil
	}
}

// baselineCall is the call of a baseline client dialed with err.
func baselineCall[C interface {
	Call(*simtime.Proc, []byte) ([]byte, error)
}](c C, err error) rpcCall {
	return func(p *simtime.Proc, in []byte, _ int64) error {
		if err != nil {
			return err
		}
		_, err := c.Call(p, in)
		return err
	}
}

// runProc runs body as a proc on node, then the cluster to completion,
// and returns the run's error or else body's.
func runProc(cls *cluster.Cluster, node int, name string, body func(p *simtime.Proc) error) error {
	var err error
	cls.GoOn(node, name, func(p *simtime.Proc) { err = body(p) })
	if runErr := cls.Run(); runErr != nil {
		return runErr
	}
	return err
}

// meanLatency runs warm untimed ops and then iters timed ones back to
// back in p, and returns the timed ops' mean latency. op gets each op's
// index, counted across both phases.
func meanLatency(p *simtime.Proc, warm, iters int, op func(i int) error) (simtime.Time, error) {
	var start simtime.Time
	for i := 0; i < warm+iters; i++ {
		if i == warm {
			start = p.Now()
		}
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return (p.Now() - start) / simtime.Time(iters), nil
}

// timeEach runs each op once, back to back in p, and returns their
// latencies in order.
func timeEach(p *simtime.Proc, ops ...func() error) ([]simtime.Time, error) {
	lats := make([]simtime.Time, len(ops))
	for k, op := range ops {
		start := p.Now()
		if err := op(); err != nil {
			return nil, err
		}
		lats[k] = p.Now() - start
	}
	return lats, nil
}

// rpcLatency is the mean latency of iters back-to-back calls of in from
// one client on node 0, after one warm-up call.
func rpcLatency(s rpcScheme, iters int, in []byte, maxReply int64) (simtime.Time, error) {
	cls, dial, err := s()
	if err != nil {
		return 0, err
	}
	var lat simtime.Time
	err = runProc(cls, 0, "client", func(p *simtime.Proc) (err error) {
		call := dial()
		lat, err = meanLatency(p, 1, iters, func(int) error { return call(p, in, maxReply) })
		return err
	})
	return lat, err
}

// window times a closed-loop throughput run over a fixed set of threads.
// Each thread runs warm untimed ops, meets the others at the start
// barrier if there is one, and runs ops timed ones. The window spans
// from the first thread through the barrier (time zero without one, or
// whatever the caller sets start to first) to the last thread's final
// completion. A thread's first failed op ends it; elapsed reports the
// run's first error.
type window struct {
	threads, warm, ops int
	barrier            bool
	started, done      simtime.WaitGroup
	start, last        simtime.Time
	err                error
}

func newWindow(threads, warm, ops int, barrier bool) *window {
	w := &window{threads: threads, warm: warm, ops: ops, barrier: barrier}
	w.done.Add(threads)
	if barrier {
		w.started.Add(threads)
	}
	return w
}

// run is one thread's loop.
func (w *window) run(p *simtime.Proc, op func() error) {
	defer w.done.Done(p.Env())
	arrived := !w.barrier
	arrive := func() {
		if !arrived {
			arrived = true
			w.started.Done(p.Env())
		}
	}
	defer arrive() // a thread that fails early must not hold the barrier
	for i := 0; i < w.warm+w.ops; i++ {
		if i == w.warm && w.barrier {
			arrive()
			w.started.Wait(p)
			if w.start == 0 {
				w.start = p.Now()
			}
		}
		if err := op(); err != nil {
			w.fail(err)
			return
		}
	}
	w.last = max(w.last, p.Now())
}

func (w *window) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// wait parks p until every thread has finished.
func (w *window) wait(p *simtime.Proc) { w.done.Wait(p) }

// elapsed is the window's span, or the run's first error.
func (w *window) elapsed() (simtime.Time, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.last <= w.start {
		return 0, errors.New("throughput window is empty")
	}
	return w.last - w.start, nil
}

// rpcThroughput runs w's threads as clients on node 0, each dialing s
// once and calling in, and returns the window's span.
func rpcThroughput(s rpcScheme, w *window, in []byte, maxReply int64) (simtime.Time, error) {
	cls, dial, err := s()
	if err != nil {
		return 0, err
	}
	for th := 0; th < w.threads; th++ {
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			call := dial()
			w.run(p, func() error { return call(p, in, maxReply) })
		})
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return w.elapsed()
}

// gapCPU drives threads client threads on node 0 through a schedule of
// len(gaps) calls: thread th issues calls th, th+threads, ..., sleeping
// threads x gaps[i] before call i (so the node as a whole issues one
// call per gap). Each thread takes its call function from client at its
// start. Returns the cluster's total CPU time once the run drains.
func gapCPU(cls *cluster.Cluster, threads int, gaps []simtime.Time, client func(p *simtime.Proc) func(i int) error) (simtime.Time, error) {
	var firstErr error
	for th := 0; th < threads; th++ {
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			call := client(p)
			for i := th; i < len(gaps); i += threads {
				p.Sleep(gaps[i] * simtime.Time(threads))
				if err := call(i); err != nil {
					firstErr = cmp.Or(firstErr, err)
					return
				}
			}
		})
	}
	if err := cls.Run(); err != nil {
		return 0, err
	}
	return cls.TotalCPU(), firstErr
}

// fixedRateCPU is the total CPU time of nReq calls of in from threads
// clients of s, one call per gap across the node.
func fixedRateCPU(s rpcScheme, threads, nReq int, gap simtime.Time, in []byte, maxReply int64) (simtime.Time, error) {
	cls, dial, err := s()
	if err != nil {
		return 0, err
	}
	gaps := make([]simtime.Time, nReq)
	for i := range gaps {
		gaps[i] = gap
	}
	return gapCPU(cls, threads, gaps, func(p *simtime.Proc) func(int) error {
		call := dial()
		return func(int) error { return call(p, in, maxReply) }
	})
}

// replay runs an experiment's seeded workload twice and returns the
// first outcome. The two must agree field for field: a divergence is a
// determinism failure, reported with both outcomes.
func replay[T comparable](id string, once func() (T, error)) (T, error) {
	var zero T
	a, err := once()
	if err != nil {
		return zero, fmt.Errorf("%s: %w", id, err)
	}
	b, err := once()
	if err != nil {
		return zero, fmt.Errorf("%s: rerun: %w", id, err)
	}
	if a != b {
		return zero, fmt.Errorf("%s: runs diverge: %+v vs %+v", id, a, b)
	}
	return a, nil
}

// closCfg is the default cost model on a two-tier Clos fabric of
// leafNodes hosts per leaf and spines spines.
func closCfg(leafNodes, spines int) params.Config {
	cfg := params.Default()
	cfg.ClosLeafNodes = leafNodes
	cfg.ClosSpines = spines
	return cfg
}

// hubOpts is the LITE bring-up of the 500-node experiments: one shared
// QP per pair, and QPs and control rings only on the pairs that touch a
// hub node (the manager 0 and the servers 1..hubs).
func hubOpts(hubs int) lite.Options {
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 1
	opts.MeshPeers = func(a, b int) bool { return a <= hubs || b <= hubs }
	return opts
}

// resubmit issues op until it is not shed: an overload shed is a
// definitive "not executed" with a Retry-After hint, and a well-behaved
// client backs off by the hint (1us if none) and resubmits, up to 50
// times. Every shed is counted in sheds.
func resubmit(p *simtime.Proc, sheds *int64, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		var ov *lite.OverloadError
		if !errors.As(err, &ov) || attempt >= 50 {
			return err
		}
		*sheds++
		wait := ov.RetryAfter
		if wait <= 0 {
			wait = simtime.Time(time.Microsecond)
		}
		p.Sleep(wait)
	}
}
