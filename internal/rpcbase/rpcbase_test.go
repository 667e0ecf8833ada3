package rpcbase

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/cluster"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	cfg := params.Default()
	return clustertest.MustNew(&cfg, n, 1<<30)
}

func echo(in []byte) []byte { return append([]byte(nil), in...) }

func TestHERDEcho(t *testing.T) {
	cls := newCluster(t, 2)
	srv := StartHERD(cls, 1, 2, echo)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := ConnectHERD(cls, srv, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			in := []byte{byte(k), 2, 3}
			out, err := c.Call(p, in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("call %d: %v != %v", k, out, in)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHERDLatencySmall(t *testing.T) {
	cls := newCluster(t, 2)
	srv := StartHERD(cls, 1, 1, echo)
	var lat simtime.Time
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := ConnectHERD(cls, srv, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, 8)
		if _, err := c.Call(p, in); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if _, err := c.Call(p, in); err != nil {
			t.Fatal(err)
		}
		lat = p.Now() - start
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper Figure 10: HERD small-message RPC is ~3-5us.
	if lat < time.Microsecond || lat > 8*time.Microsecond {
		t.Fatalf("HERD 8B latency = %v, want a few microseconds", lat)
	}
}

func TestHERDMultipleClients(t *testing.T) {
	cls := newCluster(t, 4)
	srv := StartHERD(cls, 0, 2, echo)
	for n := 1; n < 4; n++ {
		n := n
		cls.GoOn(n, "client", func(p *simtime.Proc) {
			c, err := ConnectHERD(cls, srv, n)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 15; k++ {
				in := []byte{byte(n), byte(k)}
				out, err := c.Call(p, in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, in) {
					t.Fatalf("client %d call %d mismatch", n, k)
				}
			}
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.RegionChecks == 0 {
		t.Fatal("HERD server performed no region scans")
	}
}

func TestHERDServerBurnsCPUWhenIdle(t *testing.T) {
	cls := newCluster(t, 2)
	srv := StartHERD(cls, 1, 1, echo)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := ConnectHERD(cls, srv, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Now go idle for a long stretch; HERD's poller keeps spinning.
		p.Sleep(2 * time.Millisecond)
		if _, err := c.Call(p, []byte("y")); err != nil {
			t.Fatal(err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if cls.Nodes[1].CPU.Busy() < 2*time.Millisecond {
		t.Fatalf("server CPU = %v; a spinning HERD worker must burn the idle time", cls.Nodes[1].CPU.Busy())
	}
}

func TestFaSSTEcho(t *testing.T) {
	cls := newCluster(t, 2)
	srv, err := StartFaSST(cls, 1, 1, echo)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c, err := ConnectFaSST(cls, srv, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			in := []byte{byte(k), 9}
			out, err := c.Call(p, in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("call %d mismatch", k)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Handled != 20 {
		t.Fatalf("handled = %d", srv.Handled)
	}
}

func TestFaSSTConcurrentClients(t *testing.T) {
	cls := newCluster(t, 3)
	srv, err := StartFaSST(cls, 0, 1, echo)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 3; n++ {
		n := n
		cls.GoOn(n, "client", func(p *simtime.Proc) {
			c, err := ConnectFaSST(cls, srv, n)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 25; k++ {
				in := []byte{byte(n), byte(k), 7}
				out, err := c.Call(p, in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, in) {
					t.Fatalf("client %d mismatch", n)
				}
			}
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFaRMPingPong(t *testing.T) {
	cls := newCluster(t, 2)
	pair, err := NewFaRMPair(cls, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rtt simtime.Time
	cls.GoOn(1, "responder", func(p *simtime.Proc) {
		e := pair.End(1)
		for k := 0; k < 10; k++ {
			msg, err := e.Recv(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Send(p, msg); err != nil {
				t.Fatal(err)
			}
		}
	})
	cls.GoOn(0, "pinger", func(p *simtime.Proc) {
		e := pair.End(0)
		// Warm up.
		_ = e.Send(p, []byte("warm"))
		if _, err := e.Recv(p); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		for k := 0; k < 9; k++ {
			_ = e.Send(p, []byte("ping"))
			out, err := e.Recv(p)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != "ping" {
				t.Fatalf("got %q", out)
			}
		}
		rtt = (p.Now() - start) / 9
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	// Two one-sided writes ≈ 3-4us round trip.
	if rtt < time.Microsecond || rtt > 8*time.Microsecond {
		t.Fatalf("FaRM ping-pong = %v, want a few microseconds", rtt)
	}
}

func TestRQClasses(t *testing.T) {
	sizes := []int64{100, 200, 300, 400, 1000, 4000, 8000, 16000}
	c1 := RQClasses(sizes, 1)
	if len(c1) != 1 || c1[0] != 16000 {
		t.Fatalf("1 class = %v, want [16000]", c1)
	}
	c4 := RQClasses(sizes, 4)
	if len(c4) < 2 || c4[len(c4)-1] != 16000 {
		t.Fatalf("4 classes = %v", c4)
	}
	for i := 1; i < len(c4); i++ {
		if c4[i] <= c4[i-1] {
			t.Fatalf("classes not increasing: %v", c4)
		}
	}
}

func TestUtilizationOrdering(t *testing.T) {
	// Heavy-tailed sizes: more RQ classes improve send-based
	// utilization, but LITE beats all of them.
	sizes := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		switch {
		case i%100 == 0:
			sizes = append(sizes, 60000)
		case i%10 == 0:
			sizes = append(sizes, 4000)
		default:
			sizes = append(sizes, 100)
		}
	}
	var prev float64
	for k := 1; k <= 4; k++ {
		u := SendRQUtilization(sizes, RQClasses(sizes, k))
		if u <= 0 || u > 1 {
			t.Fatalf("utilization %d RQs = %f out of range", k, u)
		}
		if u+1e-9 < prev {
			t.Fatalf("utilization decreased with more RQs: %f -> %f", prev, u)
		}
		prev = u
	}
	lite := LITERingUtilization(sizes)
	if lite <= prev {
		t.Fatalf("LITE utilization %f should beat best send-based %f", lite, prev)
	}
	if lite < 0.5 || lite > 1 {
		t.Fatalf("LITE utilization = %f out of plausible range", lite)
	}
}

func TestSendRQUtilizationOversized(t *testing.T) {
	// Messages larger than the largest class consume multiple buffers.
	u := SendRQUtilization([]int64{2500}, []int64{1000})
	if u != 2500.0/3000.0 {
		t.Fatalf("u = %f, want %f", u, 2500.0/3000.0)
	}
}
