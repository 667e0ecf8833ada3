package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestRacingResizesFreeWhatTheyDisplace races two size-changing PUTs of
// one key on two server threads, with a same-size PUT on a third thread
// swept across their window. Each resize must free exactly the entry it
// displaced, and a same-size write whose entry a resize freed under it
// must land on the current entry instead of failing: the key starts at
// 64 KB, so the in-place memcpy is wide enough for the small resizes
// to publish and free mid-copy. After quiescence one value LMR backs
// the key, no LT_free failed, every PUT succeeded, and a GET returns
// one of the values written.
func TestRacingResizesFreeWhatTheyDisplace(t *testing.T) {
	const t0 = 2 * time.Millisecond
	val := func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	written := [][]byte{val('x', 64<<10), val('y', 64<<10), val('a', 8), val('b', 16)}
	for off := -70 * time.Microsecond; off < 10*time.Microsecond; off += time.Microsecond {
		// Node 0 manages LMR names and serves nothing else, so a Malloc
		// on the server (node 4) yields for a control RPC, and neither
		// PUT's traffic queues behind the 64 KB ones.
		cls, dep := testEnv(t, 5)
		s, err := Start(cls, dep, []int{4}, 3)
		if err != nil {
			t.Fatal(err)
		}
		put := func(node int, at time.Duration, v []byte) {
			cls.GoOn(node, "put", func(p *simtime.Proc) {
				k := s.NewClient(node)
				// A first call warms the client's path to the server.
				if err := k.Put(p, fmt.Sprintf("warm%d", node), nil); err != nil {
					t.Errorf("offset %v: warm-up put: %v", off, err)
				}
				p.SleepUntil(at)
				if err := k.Put(p, "k", v); err != nil {
					t.Errorf("offset %v: put of %q x %d: %v", off, v[0], len(v), err)
				}
			})
		}
		put(1, time.Millisecond, written[0])
		put(2, t0, written[2])
		put(3, t0, written[3])
		put(1, t0+off, written[1])
		cls.GoOn(0, "get", func(p *simtime.Proc) {
			p.SleepUntil(t0 + time.Millisecond)
			v, err := s.NewClient(0).Get(p, "k")
			ok := false
			for _, w := range written {
				ok = ok || bytes.Equal(v, w)
			}
			if err != nil || !ok {
				t.Errorf("offset %v: get returned %d bytes, %v; want one of the values written", off, len(v), err)
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
		srv := s.srvs[4]
		if srv.freeFailed != 0 {
			t.Errorf("offset %v: %d LT_free calls failed (a value LMR freed twice)", off, srv.freeFailed)
		}
		// Three warm-up keys hold one value LMR each.
		live := 0
		for seq := 1; seq <= srv.seq; seq++ {
			if dep.LMRSizeByName(fmt.Sprintf("kv%d-%d-g%d-%d", s.id, srv.node, srv.gen, seq)) > 0 {
				live++
			}
		}
		if live != 3+1 {
			t.Errorf("offset %v: %d of %d value LMRs live for three warm-up keys and k, want 4", off, live, srv.seq)
		}
	}
}
