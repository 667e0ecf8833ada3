package verbs

import (
	"lite/internal/rnic"
	"lite/internal/simtime"
)

// TryPollCQ polls without blocking.
func (c *Context) TryPollCQ(p *simtime.Proc, cq *rnic.CQ) (rnic.CQE, bool) {
	return cq.TryPoll()
}
