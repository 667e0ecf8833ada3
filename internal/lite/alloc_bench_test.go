package lite

import (
	"testing"

	"lite/internal/allocbudget"
	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// rpcEcho runs client on node 0 of a two-node deployment whose node 1
// echoes FirstUserFunc; call performs one 64 B LT_RPC round trip.
func rpcEcho(tb testing.TB, client func(p *simtime.Proc, call func())) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	dep, err := Start(cls, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	srv := dep.Instance(1)
	_ = srv.RegisterRPC(FirstUserFunc)
	reply := []byte("pooled!!")
	cls.GoDaemonOn(1, "echo", func(p *simtime.Proc) {
		c := srv.KernelClient()
		call, err := c.RecvRPC(p, FirstUserFunc)
		if err != nil {
			return
		}
		for {
			call, err = c.ReplyRecvRPC(p, call, reply, FirstUserFunc)
			if err != nil {
				return
			}
		}
	})
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		in := make([]byte, 64)
		client(p, func() {
			if _, err := c.RPC(p, 1, FirstUserFunc, in, 16); err != nil {
				tb.Fatal(err)
			}
		})
	})
	if err := cls.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRPCRoundTrip measures host-side (wall-clock) allocations
// per LT_RPC round trip. The request path frames each message into a
// pooled buffer before postToRing (the RNIC snapshots the payload at
// post time, so the frame is recycled as soon as the post returns) —
// without the pool every call allocated a fresh frame. Run with:
//
//	go test -bench=RPCRoundTrip -benchmem ./internal/lite/
func BenchmarkRPCRoundTrip(b *testing.B) {
	rpcEcho(b, func(p *simtime.Proc, call func()) {
		// Warm the path (ring setup, QP caches, frame pool) before
		// counting.
		call()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call()
		}
	})
}

// rpcRoundTripAllocs bounds the steady-state allocations of one round
// trip: the caller's pending-call record, its wait record and the reply
// it gets back, and the server's Call and its input copy. The server's
// call queue reuses its backing array, and the NIC datapath below
// allocates nothing.
const rpcRoundTripAllocs = 5

func TestRPCRoundTripAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	rpcEcho(t, func(p *simtime.Proc, call func()) {
		// Warm the caches, the pools and one lap of the event wheel.
		for i := 0; i < 2000; i++ {
			call()
		}
		if allocs := testing.AllocsPerRun(2000, call); allocs > rpcRoundTripAllocs {
			t.Errorf("%.0f allocations per LT_RPC round trip, want at most %d", allocs, rpcRoundTripAllocs)
		}
	})
}

// remote64K runs client on node 0 of a two-node deployment with a
// 64 KB LMR homed on node 1; read and write move the whole LMR with one
// LT_read or LT_write.
func remote64K(tb testing.TB, client func(p *simtime.Proc, read, write func())) {
	const size = 64 << 10
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	dep, err := Start(cls, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.MallocAt(p, []int{1}, size, "", PermRead|PermWrite)
		if err != nil {
			tb.Fatal(err)
		}
		out, in := pattern(7, size), make([]byte, size)
		client(p, func() {
			if err := c.Read(p, h, 0, in); err != nil {
				tb.Fatal(err)
			}
		}, func() {
			if err := c.Write(p, h, 0, out); err != nil {
				tb.Fatal(err)
			}
		})
	})
	if err := cls.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRemoteRead64K and BenchmarkRemoteWrite64K measure one 64 KB
// LT_read or LT_write of a remote LMR. Run with:
//
//	go test -bench=Remote -benchmem ./internal/lite/
func BenchmarkRemoteRead64K(b *testing.B) {
	remote64K(b, func(_ *simtime.Proc, read, _ func()) { benchOp(b, read) })
}

func BenchmarkRemoteWrite64K(b *testing.B) {
	remote64K(b, func(_ *simtime.Proc, _, write func()) { benchOp(b, write) })
}

func benchOp(b *testing.B, op func()) {
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestRemote64KAllocBudget pins the payload pool: a 64 KB LT_read or
// LT_write stages its bytes in a recycled NIC buffer, so it allocates
// well under 1 KB, not a fresh 64 KB, per operation.
func TestRemote64KAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	remote64K(t, func(_ *simtime.Proc, read, write func()) {
		for i := 0; i < 1000; i++ {
			read()
			write()
		}
		for _, op := range []struct {
			name string
			run  func()
		}{{"LT_read", read}, {"LT_write", write}} {
			if b := allocbudget.Bytes(1000, op.run); b >= 1024 {
				t.Errorf("%s of 64 KB allocates %.0f B per op, want under 1 KB", op.name, b)
			}
		}
	})
}
