package bench

import (
	"bytes"
	"fmt"

	"lite/internal/apps/dsm"
	"lite/internal/simtime"
)

func init() {
	register("dsm-micro", "LITE-DSM page operation latencies (8.4)", dsmMicro)
}

// dsmMicro reproduces §8.4's microbenchmark numbers: random and
// sequential 4KB reads, writes, and the acquire/release cost of
// committing ten dirty pages, on four machines.
func dsmMicro() (*Table, error) {
	t := &Table{
		ID:     "dsm-micro",
		Title:  "LITE-DSM operation latency (4 nodes, 4KB pages)",
		Header: []string{"Operation", "Latency (us)"},
	}
	cls, dep, err := newLITE(4)
	if err != nil {
		return nil, err
	}
	const reads = 50
	var randRead, seqRead, write, acquire, commit simtime.Time
	err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
		sys, err := dsm.Boot(p, cls, dep, []int{0, 1, 2, 3}, 16<<20, dsm.DefaultConfig())
		if err != nil {
			return err
		}
		d, d2 := sys.Node(0), sys.Node(1)
		buf, fresh := make([]byte, 4096), bytes.Repeat([]byte{0xC3}, 4096)
		rng := xorshift(17)
		for _, m := range []struct {
			lat   *simtime.Time
			iters int
			op    func(i int) error
		}{
			// Random 4KB reads over uncached pages.
			{&randRead, reads, func(int) error { return d.Read(p, int64(rng.next()%(16<<20/4096))*4096, buf) }},
			// Sequential 4KB reads over a fresh region (cold pages, but
			// consecutive homes round-robin across nodes).
			{&seqRead, reads, func(i int) error { return d2.Read(p, int64(i)*4096, buf) }},
			// Writes of fresh data to cached pages (faults already taken).
			{&write, reads, func(i int) error { return d2.Write(p, int64(i)*4096, fresh) }},
			// Acquire, then commit 10 dirty pages at release.
			{&acquire, 1, func(int) error { d2.Acquire(p); return nil }},
			{&commit, 1, func(int) error { return d2.Release(p) }},
		} {
			if *m.lat, err = meanLatency(p, 0, m.iters, m.op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("random 4KB read (cold)", us(randRead))
	t.AddRow("sequential 4KB read (cold)", us(seqRead))
	t.AddRow("4KB write (cached page)", us(write))
	t.AddRow("sync begin (acquire)", us(acquire))
	t.AddRow(fmt.Sprintf("sync commit (%d dirty pages)", reads), us(commit))
	t.Note("paper 8.4: 12.6us random / 17.2us sequential 4KB reads; 9.2us sync begin; 74.3us commit of 10 dirty pages")
	return t, nil
}
