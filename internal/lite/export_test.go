package lite

import (
	"lite/internal/hostmem"
	"lite/internal/simtime"
)

// RegisterLMR registers already-allocated physically contiguous memory
// as an LMR (a master capability; §4.1).
func (c *Client) RegisterLMR(p *simtime.Proc, pa hostmem.PAddr, size int64, name string, defPerm Perm) (LH, error) {
	var h LH
	var err error
	c.syscall(p, func() { h, err = c.inst.registerLMRInternal(p, pa, size, name, defPerm, c.pri, c.tenant) })
	return h, err
}

// QPCount returns the number of shared queue pairs this node holds
// (the paper's K×N; §6.1).
func (i *Instance) QPCount() int {
	c := 0
	for _, qs := range i.qpSig {
		c += len(qs)
	}
	return c
}
