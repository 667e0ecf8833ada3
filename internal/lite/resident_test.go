package lite

import (
	"bytes"
	"slices"
	"testing"

	"lite/internal/simtime"
)

// Host memory follows the bytes written: a 1 MB RPC ring that has
// carried one small message holds one 256-byte line of its server's
// memory, not a page (hostmem materializes written lines). Each client
// binds one echo ring per server, negotiated over its control ring, and
// calls each server once, so every server ends up with two written
// rings per client — the control ring carrying the bind and the echo
// ring carrying the call — one line each. The count is exact, and a
// second run reproduces it byte for byte.
func TestRingResidentBytes(t *testing.T) {
	const servers, clients = 2, 6
	resident := func() []int64 {
		cls, dep := testDep(t, servers+clients)
		for s := 0; s < servers; s++ {
			startEchoServer(cls, dep, s, 1)
		}
		for c := servers; c < servers+clients; c++ {
			cls.GoOn(c, "client", func(p *simtime.Proc) {
				for s := 0; s < servers; s++ {
					if _, err := dep.Instance(c).KernelClient().RPC(p, s, echoFn, []byte("ping"), 64); err != nil {
						t.Error(err)
					}
				}
			})
		}
		run(t, cls)
		out := make([]int64, servers)
		for s := range out {
			out[s] = cls.Nodes[s].Mem.ResidentBytes()
		}
		return out
	}
	first := resident()
	const rings = 2 * clients
	for s, got := range first {
		if want := int64(rings * 256); got != want {
			t.Errorf("server %d: %d B resident, want %d (one 256 B line for each of %d rings)", s, got, want, rings)
		}
		if page := int64(4096); got >= rings*page {
			t.Errorf("server %d: %d B resident for %d rings, want below a page per ring", s, got, rings)
		}
	}
	if again := resident(); !slices.Equal(again, first) {
		t.Errorf("resident bytes per server: %v, then %v on a replay", first, again)
	}
}

// Host memory follows the bytes in flight, not every byte a ring ever
// carried: the server discards each request frame once parsed and the
// caller each reply once read (hostmem.Discard), so after 2 000 echo
// calls of 200 B — about 480 KB through the server's ring and 512 KB
// through the caller's reply arena — each node holds a few pages.
func TestRingResidentFollowsInFlight(t *testing.T) {
	cls, dep := testDep(t, 2)
	startEchoServer(cls, dep, 0, 1)
	msg := bytes.Repeat([]byte{0x5a}, 200)
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		for k := 0; k < 2000; k++ {
			out, err := dep.Instance(1).KernelClient().RPC(p, 0, echoFn, msg, 256)
			if err != nil || !bytes.Equal(out, msg) {
				t.Fatalf("call %d: %d B back, err %v", k, len(out), err)
			}
		}
	})
	run(t, cls)
	for n := 0; n < 2; n++ {
		if got, limit := cls.Nodes[n].Mem.ResidentBytes(), int64(4*4096); got > limit {
			t.Errorf("node %d: %d B resident after 2 000 calls, want at most %d", n, got, limit)
		}
	}
}
