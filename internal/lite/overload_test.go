package lite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/load"
	"lite/internal/params"
	"lite/internal/simtime"
)

// TestRingBytesBoundary pins the IMM encoding limit: a ring of exactly
// MaxRingBytes (64 MB) is accepted, one alignment step past it — or an
// unaligned or non-positive size — is rejected with the typed error at
// instance setup, before any binding can be built on it.
func TestRingBytesBoundary(t *testing.T) {
	cases := []struct {
		name string
		ring int64
		ok   bool
	}{
		{"exactly-max", MaxRingBytes, true},
		{"max-plus-8", MaxRingBytes + 8, false},
		{"unaligned", 4096 + 4, false},
		{"zero", 0, false},
		{"negative", -8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := params.Default()
			cls := cluster.MustNew(&cfg, 2, 1<<30)
			opts := DefaultOptions()
			opts.RingBytes = tc.ring
			_, err := Start(cls, opts)
			if tc.ok && err != nil {
				t.Fatalf("RingBytes=%d: Start failed: %v", tc.ring, err)
			}
			if !tc.ok && !errors.Is(err, ErrBadRingBytes) {
				t.Fatalf("RingBytes=%d: err = %v, want ErrBadRingBytes", tc.ring, err)
			}
		})
	}
}

// TestRPCDedupDropReply provokes the duplicate-execution scenario the
// sequence-number window exists for: the server executes the call but
// the reply is lost, the client times out and retries, and the server
// must recognize the retry and replay the cached reply instead of
// executing the handler twice.
func TestRPCDedupDropReply(t *testing.T) {
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, 2, 1<<30)
	opts := DefaultOptions()
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	const replyLen = 480
	execs := 0
	inst := dep.Instance(1)
	if err := inst.ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
		execs++
		out := make([]byte, replyLen)
		copy(out, c.Input)
		return out
	}); err != nil {
		t.Fatal(err)
	}

	// Drop exactly the first server->client transfer big enough to be
	// the reply (control traffic and credit updates are far smaller);
	// the retry's replayed reply must get through.
	drops := 0
	cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
		if src == 1 && dst == 0 && size >= replyLen && drops == 0 {
			drops++
			return true
		}
		return false
	})

	var out []byte
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		out, err = c.RPCRetry(p, 1, echoFn, []byte("dedup-probe"), 512)
	})
	run(t, cls)

	if err != nil {
		t.Fatalf("RPCRetry after dropped reply: %v", err)
	}
	if drops != 1 {
		t.Fatalf("drop hook fired %d times, want exactly 1 (reply lost once)", drops)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want 1 (retry must be deduplicated)", execs)
	}
	want := make([]byte, replyLen)
	copy(want, "dedup-probe")
	if !bytes.Equal(out, want) {
		t.Fatalf("replayed reply = %q, want %q", out, want)
	}
	// The duplicate frame was consumed by the dedup window, not by a
	// server thread: it must still be credited exactly once.
	checkRingsSettled(t, dep)
}

// TestAdmissionShedsFast checks the admission-control contract: once
// the pending-call queue reaches the high-water mark, a new call is
// rejected with ErrOverloaded at network round-trip speed instead of
// aging into the RPC timeout.
func TestAdmissionShedsFast(t *testing.T) {
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, 2, 1<<30)
	opts := DefaultOptions()
	opts.AdmissionHighWater = 2
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Register the function but run no server threads: every arriving
	// call queues, so the third arrival finds the queue at the mark.
	if err := dep.Instance(1).RegisterRPC(echoFn); err != nil {
		t.Fatal(err)
	}

	var shedErr error
	var shedLatency simtime.Time
	for k := 0; k < 3; k++ {
		k := k
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			p.SleepUntil(simtime.Time(k+1) * simtime.Time(10*time.Microsecond))
			c := dep.Instance(0).KernelClient()
			start := p.Now()
			_, err := c.RPC(p, 1, echoFn, []byte("q"), 64)
			if k == 2 {
				shedErr = err
				shedLatency = p.Now() - start
			} else if !errors.Is(err, ErrTimeout) {
				t.Errorf("queued call %d: err = %v, want ErrTimeout", k, err)
			}
		})
	}
	run(t, cls)

	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("third call: err = %v, want ErrOverloaded", shedErr)
	}
	if shedLatency >= simtime.Time(opts.RPCTimeout) {
		t.Fatalf("shed took %v, want well under the %v timeout", shedLatency, opts.RPCTimeout)
	}
	// Two frames sit unconsumed in the queue, the third was shed: only
	// the shed one has been credited.
	checkRingsSettled(t, dep)
}

// TestRetryOverloadBacksOff checks that the retry layer treats
// ErrOverloaded as a definitive not-executed answer: it backs off and
// retries the same binding — no rebind, which is the escalation for
// ambiguous timeouts — and succeeds once the server drains.
func TestRetryOverloadBacksOff(t *testing.T) {
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, 2, 1<<30)
	dom := cls.EnableObs()
	opts := DefaultOptions()
	opts.AdmissionHighWater = 1
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Instance(1).RegisterRPC(echoFn); err != nil {
		t.Fatal(err)
	}

	// A first call occupies the queue slot so the probe call sheds.
	cls.GoOn(0, "filler", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 1, echoFn, []byte("fill"), 64); err != nil {
			t.Errorf("filler call: %v", err)
		}
	})
	var probeErr error
	cls.GoOn(0, "probe", func(p *simtime.Proc) {
		p.Sleep(10 * time.Microsecond)
		c := dep.Instance(0).KernelClient()
		_, probeErr = c.RPCRetry(p, 1, echoFn, []byte("probe"), 64)
	})
	// The server comes up only after the probe has been shed at least
	// once, then drains both calls.
	cls.GoOn(1, "late-server", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		c := dep.Instance(1).KernelClient()
		for served := 0; served < 2; served++ {
			call, err := c.RecvRPC(p, echoFn)
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			if err := c.ReplyRPC(p, call, call.Input); err != nil {
				t.Errorf("server reply: %v", err)
				return
			}
		}
	})
	run(t, cls)

	if probeErr != nil {
		t.Fatalf("probe after backoff: %v", probeErr)
	}
	snap := dom.Snapshot()
	if n := snap.Counters["lite.retry.overloads"]; n < 1 {
		t.Fatalf("lite.retry.overloads = %d, want >= 1", n)
	}
	if n := snap.Counters["lite.rpc.shed"]; n < 1 {
		t.Fatalf("lite.rpc.shed = %d, want >= 1", n)
	}
	if n := snap.Counters["lite.retry.rebinds"]; n != 0 {
		t.Fatalf("lite.retry.rebinds = %d, want 0 (overload must not trigger rebind)", n)
	}
}

// --- cost-aware fair admission ---

// runFairnessWorkload mirrors the bench fairness experiment exactly:
// four clients share one 2-worker x 2us server (capacity 1 req/us) at
// 2x aggregate overload, with client 3 offering 5x the load of each
// well-behaved client. Requests go out raw (no retry wrapper) so each
// client's OK count is the goodput the admission policy granted it.
func runFairnessWorkload(t *testing.T, seed uint64, fair bool) []*load.Result {
	t.Helper()
	const (
		clients = 4
		srvNode = clients
		service = 2 * time.Microsecond
		workers = 2
		reqs    = 2400
		rate    = 2.0
	)
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, clients+1, 1<<30)
	opts := DefaultOptions()
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	opts.AdmissionHighWater = 48
	opts.FairAdmission = fair
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Instance(srvNode).ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
		p.Work(service)
		return c.Input[:8]
	}); err != nil {
		t.Fatal(err)
	}
	// Warm every binding (and prime the fair policy's service-time EWMA)
	// before the schedule opens.
	for n := 0; n < clients; n++ {
		n := n
		cls.GoOn(n, "warmup", func(p *simtime.Proc) {
			c := dep.Instance(n).KernelClient()
			if _, err := c.RPCRetry(p, srvNode, echoFn, make([]byte, 16), 64); err != nil {
				t.Errorf("warmup %d: %v", n, err)
			}
		})
	}
	scheds := load.SplitPoissonWeighted(seed, rate, reqs, simtime.Time(50*time.Microsecond),
		[]float64{0.25, 0.25, 0.25, 1.25})
	nodes := make([]int, clients)
	issuers := make([]*Client, clients)
	for n := range nodes {
		nodes[n] = n
		issuers[n] = dep.Instance(n).KernelClient()
	}
	res := load.RunMulti(cls, nodes, scheds, func(p *simtime.Proc, issuer, k int) load.Status {
		_, err := issuers[issuer].RPC(p, srvNode, echoFn, make([]byte, 16), 64)
		switch {
		case err == nil:
			return load.StatusOK
		case errors.Is(err, ErrOverloaded):
			return load.StatusShed
		case errors.Is(err, ErrTimeout):
			return load.StatusTimeout
		default:
			return load.StatusError
		}
	})
	run(t, cls)
	return res
}

func goodputRatio(res []*load.Result) float64 {
	min, max := res[0].OK, res[0].OK
	for _, r := range res[1:] {
		if r.OK < min {
			min = r.OK
		}
		if r.OK > max {
			max = r.OK
		}
	}
	if min == 0 {
		return float64(max)
	}
	return float64(max) / float64(min)
}

// fingerprintResults flattens per-client results into strings so two
// same-seed runs can be compared bit for bit.
func fingerprintResults(res []*load.Result) []string {
	out := make([]string, len(res))
	for n, r := range res {
		out[n] = fmt.Sprintf("issued=%d ok=%d shed=%d timeout=%d err=%d p99=%d end=%d",
			r.Issued, r.OK, r.Shed, r.Timeout, r.Errored, r.P99(), r.End)
	}
	return out
}

// TestFairAdmissionEqualizesGoodput is the fairness property test: at
// 2x overload with one greedy client, the cost-aware DRR policy must
// hold per-client goodput within 1.5x across clients, while the
// depth-only ablation — identical arrival instants, only the admission
// decision differs — leaves at least a 4x spread. Both policies must
// replay bit for bit under the same seed.
func TestFairAdmissionEqualizesGoodput(t *testing.T) {
	const seed = 42
	fair := runFairnessWorkload(t, seed, true)
	fairRatio := goodputRatio(fair)
	if fairRatio > 1.5 {
		t.Fatalf("fair admission goodput max/min = %.2f, want <= 1.5 (per-client OK: %v)",
			fairRatio, fingerprintResults(fair))
	}
	depth := runFairnessWorkload(t, seed, false)
	depthRatio := goodputRatio(depth)
	if depthRatio < 4.0 {
		t.Fatalf("depth-only goodput max/min = %.2f, want >= 4 (per-client OK: %v)",
			depthRatio, fingerprintResults(depth))
	}
	// Every client keeps a useful share under the fair policy: nobody is
	// starved outright even while the aggregate stays 2x over capacity.
	for n, r := range fair {
		if r.OK == 0 {
			t.Fatalf("fair admission starved client %d: %+v", n, r)
		}
	}
	// Determinism: a same-seed rerun of each policy must reproduce every
	// per-client tally, tail quantile, and completion instant exactly.
	for _, tc := range []struct {
		name string
		fair bool
		want []string
	}{
		{"fair", true, fingerprintResults(fair)},
		{"depth-only", false, fingerprintResults(depth)},
	} {
		got := fingerprintResults(runFairnessWorkload(t, seed, tc.fair))
		for n := range tc.want {
			if got[n] != tc.want[n] {
				t.Fatalf("%s policy replay diverged for client %d:\n  first:  %s\n  second: %s",
					tc.name, n, tc.want[n], got[n])
			}
		}
	}
}

// --- dedup across server restart ---

// TestRetryRestartCrossingMaybeExecuted pins the dedup-window gap fix:
// a call executes, its reply is lost, and the server crashes and
// restarts before the retry lands. The restarted server's dedup window
// is gone, so it cannot prove the retry safe to re-execute; it must
// answer with the ambiguity signal and the retry layer must surface
// the typed ErrMaybeExecuted — never execute the handler twice, never
// pretend the call definitively failed.
func TestRetryRestartCrossingMaybeExecuted(t *testing.T) {
	opts := heartbeatOptions()
	opts.RPCTimeout = 200 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	cls, dep := testDepOpts(t, 2, opts)
	dom := cls.EnableObs()

	const replyLen = 480
	execs := 0
	serve := func() {
		if err := dep.Instance(1).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
			execs++
			out := make([]byte, replyLen)
			copy(out, c.Input)
			return out
		}); err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	serve()

	// Drop the first full-size reply so the client times out after the
	// handler has already run.
	drops := 0
	cls.Fab.SetDropHook(func(at simtime.Time, src, dst int, size int64) bool {
		if src == 1 && dst == 0 && size >= replyLen && drops == 0 {
			drops++
			return true
		}
		return false
	})

	// The server bounces while the client is waiting out its timeout.
	cls.GoOn(0, "bouncer", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		cls.CrashNode(p, 1)
		p.Sleep(50 * time.Microsecond)
		cls.RestartNode(p, 1)
	})

	var callErr error
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		_, callErr = c.RPCRetry(p, 1, echoFn, []byte("restart-probe"), 512)
	})
	run(t, cls)

	if !errors.Is(callErr, ErrMaybeExecuted) {
		t.Fatalf("retry across restart: err = %v, want ErrMaybeExecuted", callErr)
	}
	if execs != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", execs)
	}
	snap := dom.Snapshot()
	if n := snap.Counters["lite.rpc.dedup_ambiguous"]; n < 1 {
		t.Fatalf("lite.rpc.dedup_ambiguous = %d, want >= 1", n)
	}
	if n := snap.Counters["lite.retry.maybe_executed"]; n < 1 {
		t.Fatalf("lite.retry.maybe_executed = %d, want >= 1", n)
	}
	// The frame answered with the ambiguity notice is credited like any
	// other, on the ring the restarted server renegotiated.
	checkRingsSettled(t, dep)
}

// TestServeRPCRearmAfterRestart checks that a ServeRPC registration
// survives a crash/restart cycle: the worker pool is re-spawned in the
// new incarnation and a fresh call (new binding, new boot stamp)
// succeeds without the caller doing anything special.
func TestServeRPCRearmAfterRestart(t *testing.T) {
	cls, dep := testDepOpts(t, 2, heartbeatOptions())
	if err := dep.Instance(1).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if out, err := c.RPCRetry(p, 1, echoFn, []byte("before"), 64); err != nil || string(out) != "before" {
			t.Fatalf("RPC before restart = %q, %v", out, err)
		}
		cls.CrashNode(p, 1)
		p.Sleep(100 * time.Microsecond)
		cls.RestartNode(p, 1)
		// Wait for rejoin, then the re-armed pool must serve again.
		for dep.Instance(0).NodeDead(1) {
			p.Sleep(200 * time.Microsecond)
		}
		out, err := c.RPCRetry(p, 1, echoFn, []byte("after"), 64)
		if err != nil || string(out) != "after" {
			t.Fatalf("RPC after restart = %q, %v", out, err)
		}
	})
	run(t, cls)
}
