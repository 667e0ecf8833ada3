package lite

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

const echoFn = FirstUserFunc

// startEchoServer registers echoFn at the node and runs nWorkers
// server threads that echo the input back.
func startEchoServer(cls *cluster.Cluster, dep *Deployment, node, nWorkers int) {
	inst := dep.Instance(node)
	_ = inst.RegisterRPC(echoFn)
	for w := 0; w < nWorkers; w++ {
		cls.GoDaemonOn(node, "echo-server", func(p *simtime.Proc) {
			c := inst.KernelClient()
			call, err := c.RecvRPC(p, echoFn)
			if err != nil {
				return
			}
			for {
				call, err = c.ReplyRecvRPC(p, call, call.Input, echoFn)
				if err != nil {
					return
				}
			}
		})
	}
}

func TestRPCEcho(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 1, 2)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		in := []byte("ping payload")
		out, err := c.RPC(p, 1, echoFn, in, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("echo = %q, want %q", out, in)
		}
	})
	run(t, cls)
}

// A reply longer than the caller's maxReply comes back clipped, and
// the clip is counted: the NIC wrote the whole reply past the caller's
// buffer before the client could clip it.
func TestRPCReplyTruncationCounted(t *testing.T) {
	cls, dep := testDep(t, 2)
	dom := cls.EnableObs()
	startEchoServer(cls, dep, 1, 1)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		out, err := dep.Instance(0).KernelClient().RPC(p, 1, echoFn, make([]byte, 256), 16)
		if err != nil || len(out) != 16 {
			t.Errorf("256 B reply to a 16 B budget = %d bytes, %v; want 16", len(out), err)
		}
	})
	run(t, cls)
	if got := dom.Total("lite.rpc.reply_truncated"); got != 1 {
		t.Errorf("lite.rpc.reply_truncated = %d, want 1", got)
	}
}

func TestRPCLatency8BTo4KB(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 1, 2)
	var lat simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// The paper's §5.3 breakdown: 8B key in, 4KB page back, 6.95us.
		in := make([]byte, 8)
		reply := make([]byte, 4096)
		_ = reply
		// Warm up: the server echoes input, so to get a 4KB reply we use
		// a 4KB input (transfer sizes match the paper's total bytes).
		big := make([]byte, 4096)
		if _, err := c.RPC(p, 1, echoFn, big, 4096); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		out, err := c.RPC(p, 1, echoFn, big, 4096)
		if err != nil {
			t.Fatal(err)
		}
		lat = p.Now() - start
		if len(out) != 4096 {
			t.Fatalf("reply len = %d", len(out))
		}
		_ = in
	})
	run(t, cls)
	if lat < 3*time.Microsecond || lat > 15*time.Microsecond {
		t.Fatalf("4KB RPC latency = %v, want mid-single-digit microseconds", lat)
	}
}

func TestRPCManyClients(t *testing.T) {
	cls, dep := testDep(t, 4)
	startEchoServer(cls, dep, 0, 4)
	for n := 1; n < 4; n++ {
		n := n
		cls.GoOn(n, "client", func(p *simtime.Proc) {
			c := dep.Instance(n).KernelClient()
			for k := 0; k < 50; k++ {
				in := []byte(fmt.Sprintf("n%d-call%d", n, k))
				out, err := c.RPC(p, 0, echoFn, in, 64)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, in) {
					t.Fatalf("echo mismatch: %q vs %q", out, in)
				}
			}
		})
	}
	run(t, cls)
}

func TestRPCRingWrapAndFlowControl(t *testing.T) {
	// A tiny ring forces wraparound and head-update flow control.
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	opts := DefaultOptions()
	opts.RingBytes = 4096
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	startEchoServer(cls, dep, 1, 1)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		payload := make([]byte, 1000) // ~4 messages fill the ring
		for k := 0; k < 100; k++ {
			payload[0] = byte(k)
			out, err := c.RPC(p, 1, echoFn, payload, 1024)
			if err != nil {
				t.Fatalf("call %d: %v", k, err)
			}
			if out[0] != byte(k) {
				t.Fatalf("call %d echoed %d", k, out[0])
			}
		}
	})
	run(t, cls)
}

func TestRPCTimeoutOnPartition(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 1, 1)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		// Warm up the binding first.
		if _, err := c.RPC(p, 1, echoFn, []byte("x"), 16); err != nil {
			t.Fatal(err)
		}
		cls.Fab.SetLinkDown(0, 1)
		start := p.Now()
		_, err := c.RPC(p, 1, echoFn, []byte("x"), 16)
		if err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if el := p.Now() - start; el < dep.opts.RPCTimeout {
			t.Fatalf("timed out after %v, want >= %v", el, dep.opts.RPCTimeout)
		}
		cls.Fab.SetLinkUp(0, 1)
	})
	run(t, cls)
}

func TestRPCUnknownFunction(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.RPC(p, 1, 77, []byte("x"), 16); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout (server never answers)", err)
		}
	})
	run(t, cls)
}

func TestRegisterRPCValidation(t *testing.T) {
	_, dep := testDep(t, 1)
	inst := dep.Instance(0)
	if err := inst.RegisterRPC(3); err == nil {
		t.Fatal("reserved id accepted")
	}
	if err := inst.RegisterRPC(echoFn); err != nil {
		t.Fatal(err)
	}
	if err := inst.RegisterRPC(echoFn); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestUserLevelRPCSlightlySlowerThanKernel(t *testing.T) {
	measure := func(kernel bool) simtime.Time {
		cls, dep := testDep(t, 2)
		startEchoServer(cls, dep, 1, 1)
		var lat simtime.Time
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			var c *Client
			if kernel {
				c = dep.Instance(0).KernelClient()
			} else {
				c = dep.Instance(0).UserClient()
			}
			in := make([]byte, 64)
			const iters = 50
			if _, err := c.RPC(p, 1, echoFn, in, 128); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			for k := 0; k < iters; k++ {
				if _, err := c.RPC(p, 1, echoFn, in, 128); err != nil {
					t.Fatal(err)
				}
			}
			lat = (p.Now() - start) / iters
		})
		run(t, cls)
		return lat
	}
	k := measure(true)
	u := measure(false)
	if u <= k {
		t.Fatalf("user-level RPC (%v) should be slightly slower than kernel-level (%v)", u, k)
	}
	if u-k > time.Microsecond {
		t.Fatalf("user/kernel gap = %v, want well under 1us (paper: ~0.17us of crossings)", u-k)
	}
}

func TestMessaging(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "sender", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for k := 0; k < 10; k++ {
			if err := c.Send(p, 1, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	cls.GoOn(1, "receiver", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		for k := 0; k < 10; k++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Fatal(err)
			}
			if m.Src != 0 || m.Data[0] != byte(k) {
				t.Fatalf("msg %d = %+v (ordering must hold)", k, m)
			}
		}
	})
	run(t, cls)
}

func TestLockMutualExclusion(t *testing.T) {
	cls, dep := testDep(t, 3)
	var lk Lock
	haveLock := false
	var cond simtime.Cond
	cls.GoOn(0, "alloc", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		var err error
		lk, err = c.AllocLock(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		haveLock = true
		cond.Broadcast(p.Env())
	})
	inside, maxInside, total := 0, 0, 0
	for n := 0; n < 3; n++ {
		n := n
		cls.GoOn(n, "locker", func(p *simtime.Proc) {
			for !haveLock {
				cond.Wait(p)
			}
			c := dep.Instance(n).KernelClient()
			for k := 0; k < 10; k++ {
				if err := c.LockAcquire(p, lk); err != nil {
					t.Fatal(err)
				}
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(2 * time.Microsecond) // critical section
				inside--
				total++
				if err := c.LockRelease(p, lk); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	run(t, cls)
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

func TestUncontendedLockLatency(t *testing.T) {
	cls, dep := testDep(t, 2)
	var lat simtime.Time
	cls.GoOn(1, "locker", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		lk, err := c.AllocLock(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Warm.
		_ = c.LockAcquire(p, lk)
		_ = c.LockRelease(p, lk)
		start := p.Now()
		_ = c.LockAcquire(p, lk)
		lat = p.Now() - start
		_ = c.LockRelease(p, lk)
	})
	run(t, cls)
	// Paper: ~2.2us for an available lock (one fetch-add RTT).
	if lat < time.Microsecond || lat > 4*time.Microsecond {
		t.Fatalf("uncontended lock acquire = %v, want ~2.2us", lat)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cls, dep := testDep(t, 4)
	var release [4]simtime.Time
	for n := 0; n < 4; n++ {
		n := n
		cls.GoOn(n, "member", func(p *simtime.Proc) {
			c := dep.Instance(n).KernelClient()
			p.Sleep(simtime.Time(n) * 10 * time.Microsecond) // stagger arrivals
			if err := c.Barrier(p, 42, 4); err != nil {
				t.Fatal(err)
			}
			release[n] = p.Now()
		})
	}
	run(t, cls)
	// No one may be released before the last arrival at t=30us.
	for n, r := range release {
		if r < 30*time.Microsecond {
			t.Fatalf("node %d released at %v, before the last arrival", n, r)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	cls, dep := testDep(t, 2)
	for n := 0; n < 2; n++ {
		n := n
		cls.GoOn(n, "member", func(p *simtime.Proc) {
			c := dep.Instance(n).KernelClient()
			for g := 0; g < 5; g++ {
				if err := c.Barrier(p, 7, 2); err != nil {
					t.Fatalf("generation %d: %v", g, err)
				}
			}
		})
	}
	run(t, cls)
}

func TestSWPriThrottlesLowPriority(t *testing.T) {
	cls, dep := testDep(t, 3)
	dep.SetQoSMode(QoSSWPri)
	var hiDone, loDone simtime.Time
	const nOps = 60
	buf := make([]byte, 16<<10)

	var hiLH, loLH LH
	cls.GoOn(0, "setup", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		var err error
		hiLH, err = c.MallocAt(p, []int{2}, 1<<20, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		loLH, err = c.MallocAt(p, []int{2}, 1<<20, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		cls.GoOn(0, "high", func(p *simtime.Proc) {
			c := dep.Instance(0).KernelClient().SetPriority(PriHigh)
			for k := 0; k < nOps; k++ {
				if err := c.Write(p, hiLH, 0, buf); err != nil {
					t.Fatal(err)
				}
			}
			hiDone = p.Now()
		})
		cls.GoOn(0, "low", func(p *simtime.Proc) {
			c := dep.Instance(0).KernelClient().SetPriority(PriLow)
			for k := 0; k < nOps; k++ {
				if err := c.Write(p, loLH, 0, buf); err != nil {
					t.Fatal(err)
				}
			}
			loDone = p.Now()
		})
	})
	run(t, cls)
	if loDone < hiDone {
		t.Fatalf("low-priority finished (%v) before high-priority (%v) under SW-Pri", loDone, hiDone)
	}
	if loDone < hiDone*3/2 {
		t.Fatalf("low-priority (%v) not clearly throttled vs high (%v)", loDone, hiDone)
	}
}

func TestHWSepPartitionsQPs(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	opts := DefaultOptions()
	opts.QPsPerPair = 4
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	dep.SetQoSMode(QoSHWSep)
	inst := dep.Instance(0)
	lo, hi := inst.qos.qpRange(PriHigh, 4)
	if lo != 0 || hi != 3 {
		t.Fatalf("high range = [%d,%d), want [0,3)", lo, hi)
	}
	lo, hi = inst.qos.qpRange(PriLow, 4)
	if lo != 3 || hi != 4 {
		t.Fatalf("low range = [%d,%d), want [3,4)", lo, hi)
	}
	// Sanity: ops still work in both classes.
	cls.GoOn(0, "ops", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.MallocAt(p, []int{1}, 4096, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetPriority(PriLow).Write(p, h, 0, []byte("low")); err != nil {
			t.Fatal(err)
		}
		if err := c.SetPriority(PriHigh).Write(p, h, 0, []byte("high")); err != nil {
			t.Fatal(err)
		}
	})
	run(t, cls)
}

func TestQPSharingBudget(t *testing.T) {
	// K x N QPs per node regardless of thread or app count (§6.1).
	cls, dep := testDep(t, 4)
	opts := dep.opts
	want := opts.QPsPerPair * 3
	for n := 0; n < 4; n++ {
		if got := dep.Instance(n).QPCount(); got != want {
			t.Fatalf("node %d QPs = %d, want %d", n, got, want)
		}
	}
	_ = cls
}
