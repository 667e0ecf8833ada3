package tcpip

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/fabric"
	"lite/internal/params"
	"lite/internal/simtime"
)

func newNet(t *testing.T, nodes int) (*simtime.Env, *Network, *params.Config) {
	t.Helper()
	cfg := params.Default()
	env := simtime.NewEnv()
	fab := fabric.New(&cfg)
	for i := 0; i < nodes; i++ {
		if err := fab.AddPort(i); err != nil {
			t.Fatal(err)
		}
	}
	return env, NewNetwork(env, &cfg, fab), &cfg
}

func TestDialAcceptSendRecv(t *testing.T) {
	env, net, _ := newNet(t, 2)
	l, err := net.Stack(1).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello over ipoib")
	env.Go("server", func(p *simtime.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := conn.Recv(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("got %q", got)
		}
		if err := conn.Send(p, []byte("ack")); err != nil {
			t.Error(err)
		}
	})
	env.Go("client", func(p *simtime.Proc) {
		conn, err := net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if conn.RemoteNode() != 1 {
			t.Errorf("remote node %d, want 1", conn.RemoteNode())
		}
		if err := conn.Send(p, msg); err != nil {
			t.Error(err)
		}
		if reply, err := conn.Recv(p); err != nil || string(reply) != "ack" {
			t.Errorf("reply = %q, %v", reply, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallMessageLatencyIsTensOfMicroseconds(t *testing.T) {
	env, net, _ := newNet(t, 2)
	l, _ := net.Stack(1).Listen(80)
	var rtt simtime.Time
	env.Go("server", func(p *simtime.Proc) {
		conn, _ := l.Accept(p)
		m, err := conn.Recv(p)
		if err != nil {
			t.Error(err)
			return
		}
		_ = conn.Send(p, m)
	})
	env.Go("client", func(p *simtime.Proc) {
		conn, err := net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		_ = conn.Send(p, make([]byte, 8))
		_, _ = conn.Recv(p)
		rtt = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The paper's qperf IPoIB latency is ~20-35us one way; our ping-pong
	// round trip should be in the tens of microseconds, far above RDMA.
	if rtt < 15*time.Microsecond || rtt > 100*time.Microsecond {
		t.Fatalf("8B ping-pong rtt = %v, want tens of microseconds", rtt)
	}
}

func TestStreamingThroughputBelowLinkRate(t *testing.T) {
	env, net, cfg := newNet(t, 2)
	l, _ := net.Stack(1).Listen(80)
	const msgSize = 64 << 10
	const count = 200
	var elapsed simtime.Time
	env.Go("sink", func(p *simtime.Proc) {
		conn, _ := l.Accept(p)
		for i := 0; i < count; i++ {
			if _, err := conn.Recv(p); err != nil {
				t.Error(err)
				return
			}
		}
		elapsed = p.Now()
	})
	env.Go("source", func(p *simtime.Proc) {
		conn, err := net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, msgSize)
		for i := 0; i < count; i++ {
			if err := conn.Send(p, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	gbps := float64(msgSize*count) / elapsed.Seconds() / 1e9
	linkGBps := cfg.LinkBandwidth / 1e9
	if gbps >= linkGBps {
		t.Fatalf("TCP throughput %.2f GB/s should be below link rate %.2f GB/s", gbps, linkGBps)
	}
	if gbps < 0.8 || gbps > 2.5 {
		t.Fatalf("TCP throughput %.2f GB/s out of the expected 1-2 GB/s band", gbps)
	}
}

func TestDialErrors(t *testing.T) {
	env, net, _ := newNet(t, 2)
	env.Go("client", func(p *simtime.Proc) {
		if _, err := net.Stack(0).Dial(p, 1, 9); err != ErrRefused {
			t.Errorf("err = %v, want ErrRefused", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPortInUse(t *testing.T) {
	_, net, _ := newNet(t, 1)
	if _, err := net.Stack(0).Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Stack(0).Listen(80); err != ErrPortInUse {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
}

func TestCloseUnblocksPeer(t *testing.T) {
	env, net, _ := newNet(t, 2)
	l, _ := net.Stack(1).Listen(80)
	env.Go("server", func(p *simtime.Proc) {
		conn, _ := l.Accept(p)
		if _, err := conn.Recv(p); err != ErrClosed {
			t.Errorf("recv err = %v, want ErrClosed", err)
		}
	})
	env.Go("client", func(p *simtime.Proc) {
		conn, err := net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * time.Microsecond)
		conn.Close(p.Env())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlowControlLimitsInflight(t *testing.T) {
	env, net, cfg := newNet(t, 2)
	l, _ := net.Stack(1).Listen(80)
	big := int(cfg.TCPWindow) // each message fills the window
	var sendDone simtime.Time
	env.Go("slow-sink", func(p *simtime.Proc) {
		conn, _ := l.Accept(p)
		for i := 0; i < 3; i++ {
			if _, err := conn.Recv(p); err != nil {
				t.Error(err)
			}
		}
	})
	env.Go("source", func(p *simtime.Proc) {
		conn, err := net.Stack(0).Dial(p, 1, 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			_ = conn.Send(p, make([]byte, big))
		}
		sendDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The third send cannot start before the first delivery: at least
	// two full window transmissions must have completed.
	minWire := 2 * params.TransferTime(int64(big), cfg.LinkBandwidth)
	if sendDone < minWire {
		t.Fatalf("sendDone = %v, want >= %v (flow control must block)", sendDone, minWire)
	}
}

func TestListenerClose(t *testing.T) {
	env, net, _ := newNet(t, 1)
	l, _ := net.Stack(0).Listen(80)
	env.Go("acceptor", func(p *simtime.Proc) {
		if _, err := l.Accept(p); err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
	env.Go("closer", func(p *simtime.Proc) {
		p.Sleep(time.Microsecond)
		l.Close(p.Env())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
