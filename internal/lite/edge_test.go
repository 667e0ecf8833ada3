package lite

import (
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/hostmem"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestMallocOutOfMemory(t *testing.T) {
	// A node with little memory: local and remote allocation failures
	// surface as errors, not corruption.
	cfg := params.Default()
	cls := cluster.MustNew(&cfg, 2, 256<<20)
	dep, err := Start(cls, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(0, "alloc", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		if _, err := c.Malloc(p, 1<<30, "", PermRead); err != hostmem.ErrOutOfMemory {
			t.Fatalf("local OOM err = %v", err)
		}
		if _, err := c.MallocAt(p, []int{1}, 1<<30, "", PermRead); err != hostmem.ErrOutOfMemory {
			t.Fatalf("remote OOM err = %v", err)
		}
		// A sane allocation still works afterwards.
		if _, err := c.Malloc(p, 1<<20, "", PermRead); err != nil {
			t.Fatalf("post-OOM alloc: %v", err)
		}
	})
	run(t, cls)
}

func TestMessagingTryRecvAndUserClient(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "sender", func(p *simtime.Proc) {
		c := dep.Instance(0).UserClient()
		if err := c.Send(p, 1, []byte("m1")); err != nil {
			t.Fatal(err)
		}
	})
	cls.GoOn(1, "receiver", func(p *simtime.Proc) {
		c := dep.Instance(1).UserClient()
		// TryRecv before arrival: empty.
		if _, ok := c.TryRecv(p); ok {
			t.Fatal("TryRecv returned a message before any was sent")
		}
		m, err := c.Recv(p)
		if err != nil || string(m.Data) != "m1" || m.Src != 0 {
			t.Fatalf("recv = %+v, %v", m, err)
		}
		if _, ok := c.TryRecv(p); ok {
			t.Fatal("TryRecv returned a duplicate")
		}
	})
	run(t, cls)
}

func TestSelfSendAndSelfRPC(t *testing.T) {
	cls, dep := testDep(t, 1)
	inst := dep.Instance(0)
	_ = inst.RegisterRPC(echoFn)
	cls.GoDaemonOn(0, "echo", func(p *simtime.Proc) {
		c := inst.KernelClient()
		call, err := c.RecvRPC(p, echoFn)
		for err == nil {
			call, err = c.ReplyRecvRPC(p, call, call.Input, echoFn)
		}
	})
	cls.GoOn(0, "self", func(p *simtime.Proc) {
		c := inst.KernelClient()
		if err := c.Send(p, 0, []byte("loop")); err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv(p)
		if err != nil || string(m.Data) != "loop" {
			t.Fatalf("self message = %+v, %v", m, err)
		}
		out, err := c.RPC(p, 0, echoFn, []byte("self-rpc"), 32)
		if err != nil || string(out) != "self-rpc" {
			t.Fatalf("self RPC = %q, %v", out, err)
		}
	})
	run(t, cls)
}

func TestQoSRangesAndThrottleUnits(t *testing.T) {
	var sig qosSignals
	var q qosState
	q.init(nil, 4, &sig)
	// No QoS: full range, no throttle.
	if lo, hi := q.qpRange(PriLow, 4); lo != 0 || hi != 4 {
		t.Fatalf("none range = [%d,%d)", lo, hi)
	}
	q.mode = QoSHWSep
	if lo, hi := q.qpRange(PriHigh, 4); lo != 0 || hi != 3 {
		t.Fatalf("high range = [%d,%d)", lo, hi)
	}
	if lo, hi := q.qpRange(PriLow, 4); lo != 3 || hi != 4 {
		t.Fatalf("low range = [%d,%d)", lo, hi)
	}
	// A single QP cannot be partitioned.
	if lo, hi := q.qpRange(PriLow, 1); lo != 0 || hi != 1 {
		t.Fatalf("k=1 range = [%d,%d)", lo, hi)
	}
}

func TestSWPriThrottleOnlyWhenHighActive(t *testing.T) {
	cls, dep := testDep(t, 2)
	dep.SetQoSMode(QoSSWPri)
	cls.GoOn(0, "low", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient().SetPriority(PriLow)
		h, err := c.MallocAt(p, []int{1}, 1<<20, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		// No high-priority traffic anywhere: low runs at full speed.
		start := p.Now()
		for i := 0; i < 10; i++ {
			if err := c.Write(p, h, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		free := p.Now() - start
		// Now mark the high class active and observe throttling.
		hc := dep.Instance(0).KernelClient().SetPriority(PriHigh)
		if err := hc.Write(p, h, 0, buf[:4096]); err != nil {
			t.Fatal(err)
		}
		start = p.Now()
		for i := 0; i < 10; i++ {
			if err := c.Write(p, h, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		throttled := p.Now() - start
		if throttled < 2*free {
			t.Fatalf("low-priority not throttled: free %v vs active %v", free, throttled)
		}
	})
	run(t, cls)
}

// lowWriteThrottle returns how long the QoS policy makes a 64 KB
// low-priority write wait behind an identical one issued at the same
// instant, on a deployment whose links run at link bytes/s.
func lowWriteThrottle(t *testing.T, mode QoSMode, link float64) simtime.Time {
	t.Helper()
	cfg := params.Default()
	cfg.LinkBandwidth = link
	cls := cluster.MustNew(&cfg, 2, 1<<30)
	dep, err := Start(cls, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dep.SetQoSMode(mode)
	var delay simtime.Time
	cls.GoOn(0, "low", func(p *simtime.Proc) {
		p.Sleep(time.Microsecond)
		q := &dep.Instance(0).qos
		q.sig.lastHigh = p.Now() // SW-Pri throttles only while high is active
		q.throttle(p, PriLow, 64<<10)
		start := p.Now()
		q.throttle(p, PriLow, 64<<10)
		delay = p.Now() - start
	})
	run(t, cls)
	return delay
}

// Both isolation policies pace low-priority bytes at a share of the
// configured link, so a link half as fast doubles the wait.
func TestQoSThrottleFollowsLinkBandwidth(t *testing.T) {
	link := params.Default().LinkBandwidth
	for _, mode := range []QoSMode{QoSHWSep, QoSSWPri} {
		full := lowWriteThrottle(t, mode, link)
		half := lowWriteThrottle(t, mode, link/2)
		if full <= 0 {
			t.Fatalf("mode %d: no throttle at the default link", mode)
		}
		if d := half - 2*full; d < -1 || d > 1 {
			t.Fatalf("mode %d: throttle %v at full link, %v at half; want double", mode, full, half)
		}
	}
}
