package lite

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// testDepOpts is testDep with custom deployment options.
func testDepOpts(t *testing.T, n int, opts Options) (*cluster.Cluster, *Deployment) {
	t.Helper()
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, n, 1<<30)
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cls, dep
}

func heartbeatOptions() Options {
	opts := DefaultOptions()
	opts.HeartbeatInterval = 100 * time.Microsecond
	opts.HeartbeatTimeout = 300 * time.Microsecond
	return opts
}

// --- scratch-ring quarantine (reply-buffer reuse hazard) ---

func TestScratchQuarantineBlocksReuse(t *testing.T) {
	s := scratchRing{base: 0, size: 1024}
	a := s.alloc(100) // [0, 128)
	if a != 0 {
		t.Fatalf("first alloc at %d, want 0", a)
	}
	// A timed-out call quarantines its reply buffer; the allocator must
	// skip the range until the quarantine is released.
	s.quarantine(a, 100, 7, 1)
	s.next = 0 // simulate a wrap back to the start
	b := s.alloc(64)
	if int64(b) < 128 {
		t.Fatalf("alloc landed at %d, inside the quarantined range", b)
	}
	s.release(7)
	s.next = 0
	c := s.alloc(64)
	if c != 0 {
		t.Fatalf("alloc after release at %d, want 0", c)
	}
	if s.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", s.Evictions)
	}
}

func TestScratchQuarantineReleaseBefore(t *testing.T) {
	s := scratchRing{base: 0, size: 4096}
	s.quarantine(s.alloc(64), 64, 1, 1)
	s.quarantine(s.alloc(64), 64, 2, 2)
	s.quarantine(s.alloc(64), 64, 3, 5)
	// A membership-epoch advance releases quarantines from older
	// epochs: a late reply from a node now declared dead can no longer
	// land.
	freed := s.releaseBefore(5)
	if len(freed) != 2 || freed[0] != 1 || freed[1] != 2 {
		t.Fatalf("releaseBefore freed %v, want [1 2]", freed)
	}
	if len(s.quar) != 1 || s.quar[0].token != 3 {
		t.Fatalf("remaining quarantine = %+v", s.quar)
	}
}

func TestScratchQuarantineSafetyValve(t *testing.T) {
	// If quarantined buffers would wedge the allocator (two full wraps
	// without finding a gap, or over half the arena quarantined), the
	// oldest quarantine is force-released and reported via evicted.
	s := scratchRing{base: 0, size: 256}
	s.quarantine(s.alloc(64), 64, 1, 1)
	s.quarantine(s.alloc(64), 64, 2, 1)
	s.quarantine(s.alloc(64), 64, 3, 1)
	// Arena: [0,192) quarantined, 64 bytes free. Allocating 128 cannot
	// fit without evicting.
	_ = s.alloc(128)
	if s.Evictions == 0 {
		t.Fatal("allocator wedged: no safety-valve eviction")
	}
	if len(s.evicted) == 0 || s.evicted[0] != 1 {
		t.Fatalf("evicted = %v, want oldest token 1 first", s.evicted)
	}
}

// slowFn echoes, but sleeps before replying when the input starts with
// 'S' — long enough for the caller's timeout to fire first.
const slowFn = FirstUserFunc + 1

func startSlowEchoServer(cls *cluster.Cluster, dep *Deployment, node int, delay simtime.Time) {
	inst := dep.Instance(node)
	_ = inst.RegisterRPC(slowFn)
	cls.GoDaemonOn(node, "slow-echo", func(p *simtime.Proc) {
		c := inst.KernelClient()
		for {
			call, err := c.RecvRPC(p, slowFn)
			if err != nil {
				return
			}
			if len(call.Input) > 0 && call.Input[0] == 'S' {
				p.Sleep(delay)
			}
			if err := c.ReplyRPC(p, call, call.Input); err != nil {
				return
			}
		}
	})
}

// Regression test for the scratch-ring reply-buffer hazard: a timed-out
// call's reply buffer must not be handed to a later call while the
// stale reply can still land on it.
func TestLateReplyDoesNotCorruptLaterCalls(t *testing.T) {
	cls, dep := testDep(t, 2)
	startSlowEchoServer(cls, dep, 1, 2*time.Millisecond)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		inst := dep.Instance(0)
		slow := append([]byte("S"), bytes.Repeat([]byte{0xAA}, 200)...)
		if _, err := c.RPCT(p, 1, slowFn, slow, 256, 200*time.Microsecond); err != ErrTimeout {
			t.Fatalf("slow call err = %v, want ErrTimeout", err)
		}
		if len(inst.scratch.quar) == 0 {
			t.Fatal("timed-out reply buffer was not quarantined")
		}
		// Hammer the RPC path while the stale reply is in flight; every
		// reply must match its own request.
		for k := 0; k < 50; k++ {
			in := bytes.Repeat([]byte{byte(k + 1)}, 200)
			out, err := c.RPC(p, 1, slowFn, in, 256)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("call %d: reply corrupted by stale buffer reuse", k)
			}
		}
		// Once the late reply lands it is dropped on the floor and its
		// quarantine is released.
		p.Sleep(3 * time.Millisecond)
		if len(inst.scratch.quar) != 0 {
			t.Fatalf("quarantine not released after late reply: %+v", inst.scratch.quar)
		}
		if inst.scratch.Evictions != 0 {
			t.Fatalf("safety valve fired (%d) in a healthy run", inst.scratch.Evictions)
		}
		for _, tok := range inst.pending.sorted() {
			if inst.pending.get(tok).abandoned {
				t.Fatalf("abandoned pending entry %d not cleaned up", tok)
			}
		}
	})
	run(t, cls)
}

// --- heartbeat membership ---

func TestHeartbeatDeclaresDeadAndRevives(t *testing.T) {
	cls, dep := testDepOpts(t, 3, heartbeatOptions())
	startEchoServerN(cls, dep, 2)
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 2, echoFn, []byte("warm"), 32); err != nil {
			t.Fatal(err)
		}
		epoch0 := dep.memb.epoch
		cls.Fab.SetNodeDown(2)
		down := p.Now()
		deadline := p.Now() + 20*time.Millisecond
		for !dep.Instance(0).NodeDead(2) {
			if p.Now() > deadline {
				t.Fatal("node 2 never declared dead")
			}
			p.Sleep(100 * time.Microsecond)
		}
		// Each missed beat costs at least a keepalive timeout.
		if el := p.Now() - down; el < heartbeatMiss*dep.opts.HeartbeatTimeout {
			t.Fatalf("node 2 declared dead %v after it went down, before %d keepalives could time out", el, heartbeatMiss)
		}
		if dep.memb.epoch <= epoch0 {
			t.Fatalf("epoch not bumped: %d -> %d", epoch0, dep.memb.epoch)
		}
		// The epoch broadcast reaches other live instances too.
		for !dep.Instance(1).NodeDead(2) {
			if p.Now() > deadline {
				t.Fatal("membership broadcast never reached node 1")
			}
			p.Sleep(100 * time.Microsecond)
		}
		// Declared-dead targets fail fast, without burning the timeout.
		start := p.Now()
		if _, err := c.RPCRetry(p, 2, echoFn, []byte("x"), 32); err != ErrNodeDead {
			t.Fatalf("RPC to dead node err = %v, want ErrNodeDead", err)
		}
		if el := p.Now() - start; el >= dep.opts.RPCTimeout {
			t.Fatalf("fail-fast took %v, at least a full RPC timeout", el)
		}
		// The node comes back; a successful probe revives it and the
		// epoch advances again.
		epochDead := dep.memb.epoch
		cls.Fab.SetNodeUp(2)
		deadline = p.Now() + 20*time.Millisecond
		for dep.Instance(0).NodeDead(2) {
			if p.Now() > deadline {
				t.Fatal("node 2 never revived")
			}
			p.Sleep(100 * time.Microsecond)
		}
		if dep.memb.epoch <= epochDead {
			t.Fatal("revival did not bump the epoch")
		}
		out, err := c.RPCRetry(p, 2, echoFn, []byte("back"), 32)
		if err != nil || string(out) != "back" {
			t.Fatalf("RPC after revival = %q, %v", out, err)
		}
	})
	run(t, cls)
}

// --- retry layer ---

func TestRPCRetryRidesOutLinkFlap(t *testing.T) {
	cls, dep := testDep(t, 2) // heartbeats off: no death declaration
	startEchoServer(cls, dep, 1, 1)
	cls.GoDaemonOn(0, "flap", func(p *simtime.Proc) {
		p.Sleep(50 * time.Microsecond)
		cls.Fab.SetLinkDown(0, 1)
		cls.Fab.SetLinkDown(1, 0)
		p.Sleep(3 * time.Millisecond)
		cls.Fab.SetLinkUp(0, 1)
		cls.Fab.SetLinkUp(1, 0)
	})
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 1, echoFn, []byte("warm"), 32); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * time.Microsecond) // flap is now active
		out, err := c.RPCRetryT(p, 1, echoFn, []byte("persist"), 32, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("retry did not ride out the flap: %v", err)
		}
		if string(out) != "persist" {
			t.Fatalf("echo = %q", out)
		}
	})
	run(t, cls)
}

func TestRPCRetryGivesUpAfterBoundedAttempts(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 1, 1)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 1, echoFn, []byte("warm"), 32); err != nil {
			t.Fatal(err)
		}
		cls.Fab.SetNodeDown(1) // never heals, heartbeats off
		start := p.Now()
		_, err := c.RPCRetryT(p, 1, echoFn, []byte("x"), 32, 500*time.Microsecond)
		if err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		el := p.Now() - start
		// Bounded: at most attempts * (timeout + max backoff), far from
		// an unbounded wait.
		max := simtime.Time(retryAttempts) * (500*time.Microsecond + 25*time.Millisecond)
		if el > max {
			t.Fatalf("retries took %v, over the bound %v", el, max)
		}
		cls.Fab.SetNodeUp(1)
	})
	run(t, cls)
}

// --- crash / restart ---

func TestCrashNodeFailsCallersAndRestartRejoins(t *testing.T) {
	cls, dep := testDepOpts(t, 3, heartbeatOptions())
	startEchoServerN(cls, dep, 2)
	startSlowEchoServer(cls, dep, 2, 20*time.Millisecond)
	cls.OnNodeUp(func(p *simtime.Proc, node int) {
		if node == 2 {
			startEchoServerN(cls, dep, 2)
		}
	})
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 2, echoFn, []byte("warm"), 32); err != nil {
			t.Fatal(err)
		}
		cls.GoDaemonOn(1, "crasher", func(q *simtime.Proc) {
			q.Sleep(100 * time.Microsecond)
			cls.CrashNode(q, 2)
		})
		// A call in flight when the node dies (the slow server sits on
		// it for 20ms) fails once the manager declares the node dead —
		// well before its own 50ms deadline, and not never.
		start := p.Now()
		_, err := c.RPCT(p, 2, slowFn, []byte("S"), 32, 50*time.Millisecond)
		if err == nil {
			t.Fatal("call to crashed node succeeded")
		}
		if el := p.Now() - start; el >= 20*time.Millisecond {
			t.Fatalf("in-flight call failed only after %v; membership did not fail it fast", el)
		}
		for !dep.Instance(0).NodeDead(2) {
			p.Sleep(100 * time.Microsecond)
		}
		epochDead := dep.memb.epoch
		cls.RestartNode(p, 2)
		deadline := p.Now() + 30*time.Millisecond
		for dep.Instance(0).NodeDead(2) {
			if p.Now() > deadline {
				t.Fatal("restarted node never rejoined")
			}
			p.Sleep(200 * time.Microsecond)
		}
		if dep.memb.epoch <= epochDead {
			t.Fatal("rejoin did not bump the epoch")
		}
		out, err := c.RPCRetry(p, 2, echoFn, []byte("again"), 32)
		if err != nil || string(out) != "again" {
			t.Fatalf("RPC after restart = %q, %v", out, err)
		}
	})
	run(t, cls)
}

func TestManagerCrashRestartRecoversDirectory(t *testing.T) {
	cls, dep := testDepOpts(t, 3, heartbeatOptions())
	cls.GoOn(1, "driver", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		h, err := c.Malloc(p, 4096, "durable", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Write(p, h, 0, []byte("alive")); err != nil {
			t.Fatal(err)
		}
		// The manager node crashes, losing the name directory, then
		// restarts: the rejoin protocol republishes surviving names.
		cls.CrashNode(p, 0)
		cls.RestartNode(p, 0)
		deadline := p.Now() + 50*time.Millisecond
		for {
			if _, err := c.Map(p, "durable"); err == nil {
				break
			}
			if p.Now() > deadline {
				t.Fatal("directory never recovered after manager restart")
			}
			p.Sleep(500 * time.Microsecond)
		}
		h2, err := c.Map(p, "durable")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5)
		if err := c.Read(p, h2, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "alive" {
			t.Fatalf("data after manager recovery = %q", got)
		}
	})
	run(t, cls)
}
