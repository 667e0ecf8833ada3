package lite

import (
	"errors"
	"testing"

	"lite/internal/params"
	"lite/internal/simtime"
)

// Every local arm of the memory operations resolves its handle, then
// yields (LITECheck, then the memcpy's own duration) before it touches
// the chunk. An LT_free that runs inside that yield releases the chunk,
// so the arm must notice and fail with ErrFreed instead of reading or
// writing memory the allocator may already have handed to someone else.
// The free is placed in the middle of the copy by explicit sleeps, not
// by whatever the surrounding timeline happens to be.
func TestFreeDuringLocalCopyYield(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name string
		// freeSecond frees the op's second LMR instead of its first.
		freeSecond bool
		op         func(c *Client, p *simtime.Proc, a, b LH, buf []byte) error
	}{
		{"read", false, func(c *Client, p *simtime.Proc, a, _ LH, buf []byte) error { return c.Read(p, a, 0, buf) }},
		{"write", false, func(c *Client, p *simtime.Proc, a, _ LH, buf []byte) error { return c.Write(p, a, 0, buf) }},
		{"readv", false, func(c *Client, p *simtime.Proc, a, _ LH, buf []byte) error {
			return c.ReadV(p, []ReadSeg{{LH: a, Off: 0, Buf: buf}})
		}},
		{"memset", false, func(c *Client, p *simtime.Proc, a, _ LH, _ []byte) error { return c.Memset(p, a, 0, 7, size) }},
		{"memcpy-source", false, func(c *Client, p *simtime.Proc, a, b LH, _ []byte) error { return c.Memcpy(p, b, 0, a, 0, size) }},
		{"memcpy-destination", true, func(c *Client, p *simtime.Proc, a, b LH, _ []byte) error { return c.Memcpy(p, b, 0, a, 0, size) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cls, dep := testDep(t, 2)
			cfg := cls.Cfg
			copyTime := params.TransferTime(size, cfg.MemcpyBandwidth)
			if copyTime/2 <= 2*cfg.LITECheck {
				t.Fatalf("copy of %d bytes takes %v: too short to free inside", size, copyTime)
			}
			cls.GoOn(0, "victim", func(p *simtime.Proc) {
				c := dep.Instance(0).KernelClient()
				a, err := c.Malloc(p, size, "", PermRead|PermWrite)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := c.Malloc(p, size, "", PermRead|PermWrite)
				if err != nil {
					t.Error(err)
					return
				}
				target := a
				if tc.freeSecond {
					target = b
				}
				start := p.Now()
				var freedAt simtime.Time
				cls.GoOn(0, "freer", func(q *simtime.Proc) {
					// The op spends LITECheck, then copyTime in its first
					// memcpy: this lands the free in the middle of that copy.
					q.Sleep(cfg.LITECheck + copyTime/2)
					if err := c.Free(q, target); err != nil {
						t.Errorf("free: %v", err)
					}
					freedAt = q.Now()
				})
				err = tc.op(c, p, a, b, make([]byte, size))
				if lo, hi := start+cfg.LITECheck, start+cfg.LITECheck+copyTime; freedAt <= lo || freedAt >= hi {
					t.Errorf("free landed at %v, outside the copy's yield (%v, %v)", freedAt, lo, hi)
				}
				if p.Now() <= freedAt {
					t.Errorf("op returned at %v, before the free at %v", p.Now(), freedAt)
				}
				if !errors.Is(err, ErrFreed) {
					t.Errorf("op racing LT_free returned %v, want ErrFreed", err)
				}
			})
			run(t, cls)
		})
	}
}
