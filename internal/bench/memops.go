package bench

import (
	"fmt"

	"lite/internal/lite"
	"lite/internal/simtime"
)

func init() {
	register("fig17", "Memory-like operation latency vs size (7.1)", fig17)
}

func fig17() (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "LITE memory operation latency vs size",
		Header: []string{"Size (KB)", "LT_malloc (us)", "LT_memset (us)", "LT_memcpy (us)", "LT_memcpy local (us)", "LT_memmove (us)"},
	}
	sizes := []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	for _, size := range sizes {
		cls, dep, err := newLITE(3)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", size/1024)}
		err = runProc(cls, 0, "bench", func(p *simtime.Proc) error {
			c := dep.Instance(0).KernelClient()
			alloc := func(node int) (h lite.LH, err error) {
				return c.MallocAt(p, []int{node}, size, "", lite.PermRead|lite.PermWrite)
			}
			// LT_malloc at a remote node (the common datacenter case).
			var src lite.LH
			malloc, err := timeEach(p, func() (err error) { src, err = alloc(1); return err })
			if err != nil {
				return err
			}
			// Destination on a different node for the remote memcpy, and
			// a sibling on the same node for the local one.
			dst, err := alloc(2)
			if err != nil {
				return err
			}
			sib, err := alloc(1)
			if err != nil {
				return err
			}
			lats, err := timeEach(p,
				func() error { return c.Memset(p, src, 0, 0xAB, size) },
				func() error { return c.Memcpy(p, dst, 0, src, 0, size) },
				func() error { return c.Memcpy(p, sib, 0, src, 0, size) },
				func() error { return c.Memmove(p, dst, 0, src, 0, size) })
			for _, d := range append(malloc, lats...) {
				row = append(row, us(d))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Note("paper: LT_malloc roughly flat; set/copy/move grow with size; the local memcpy variant is cheapest")
	return t, nil
}
