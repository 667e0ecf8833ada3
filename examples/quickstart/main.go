// Quickstart: boot a three-node LITE cluster and exercise the core of
// Table 1 — LT_malloc / LT_map / LT_write / LT_read, LT_send / LT_recv,
// LT_RPC, LT_test-set, a distributed lock, and a barrier.
package main

import (
	"fmt"
	"log"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

const echoFn = lite.FirstUserFunc

func main() {
	cfg := params.Default()
	cls, err := cluster.New(&cfg, 3, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// An RPC echo server on node 2.
	srv := dep.Instance(2)
	if err := srv.RegisterRPC(echoFn); err != nil {
		log.Fatal(err)
	}
	cls.GoDaemonOn(2, "echo-server", func(p *simtime.Proc) {
		c := srv.KernelClient()
		call, err := c.RecvRPC(p, echoFn)
		for err == nil {
			call, err = c.ReplyRecvRPC(p, call, append([]byte("echo: "), call.Input...), echoFn)
		}
	})

	// Node 0: create a named LMR and write into it.
	cls.GoOn(0, "producer", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		h, err := c.Malloc(p, 4096, "greeting", lite.PermRead|lite.PermWrite)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Write(p, h, 0, []byte("hello from node 0")); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node0: wrote greeting into LMR %q\n", p.Now(), "greeting")
		if err := c.Send(p, 1, []byte("greeting")); err != nil {
			log.Fatal(err)
		}
		if err := c.Barrier(p, 1, 2); err != nil {
			log.Fatal(err)
		}
	})

	// Node 1: wait for node 0's message naming the LMR, map it, read
	// it, call the RPC server, and synchronize.
	cls.GoOn(1, "consumer", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		msg, err := c.Recv(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node1: LT_recv %q from node %d\n", p.Now(), msg.Data, msg.Src)
		h, err := c.Map(p, string(msg.Data))
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 17)
		start := p.Now()
		if err := c.Read(p, h, 0, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node1: LT_read %q in %v\n", p.Now(), buf, p.Now()-start)

		start = p.Now()
		out, err := c.RPC(p, 2, echoFn, []byte("ping"), 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node1: LT_RPC reply %q in %v\n", p.Now(), out, p.Now()-start)

		// LT_test-set on a word of the shared LMR: the first set wins,
		// a second one sees the word taken.
		first, err := c.TestSet(p, h, 64, 1)
		if err != nil {
			log.Fatal(err)
		}
		again, err := c.TestSet(p, h, 64, 1)
		if err != nil {
			log.Fatal(err)
		}
		if first != 0 || again != 1 {
			log.Fatalf("LT_test-set returned %d then %d, want 0 then 1", first, again)
		}
		fmt.Printf("[%8v] node1: LT_test-set took the word (it held %d, then %d)\n", p.Now(), first, again)

		lk, err := c.AllocLock(p, 0)
		if err != nil {
			log.Fatal(err)
		}
		start = p.Now()
		if err := c.LockAcquire(p, lk); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node1: acquired distributed lock in %v\n", p.Now(), p.Now()-start)
		if err := c.LockRelease(p, lk); err != nil {
			log.Fatal(err)
		}
		if err := c.Barrier(p, 1, 2); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] node1: passed the 2-party barrier\n", p.Now())
	})

	if err := cls.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done; simulated time %v\n", cls.Env.Now())
}
