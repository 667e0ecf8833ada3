package rnic

import "lite/internal/simtime"

// Poll blocks until a completion is available and returns it.
func (c *CQ) Poll(p *simtime.Proc) CQE {
	for {
		if cqe, ok := c.TryPoll(); ok {
			return cqe
		}
		c.cond.Wait(p)
	}
}

// MRCount returns the number of registered memory regions.
func (n *NIC) MRCount() int { return n.liveMRs }

// QPCount returns the number of live QPs on this NIC.
func (n *NIC) QPCount() int { return len(n.qps) - 1 }

// Len returns the number of resident entries.
func (c *lru[K]) Len() int { return len(c.slots) }

// Stats returns cumulative hits and misses.
func (c *lru[K]) Stats() (hits, misses int64) { return c.hits, c.misses }

// PollTimeout is Poll with a deadline; ok is false on timeout.
func (c *CQ) PollTimeout(p *simtime.Proc, d simtime.Time) (CQE, bool) {
	deadline := p.Now() + d
	for {
		if cqe, ok := c.TryPoll(); ok {
			return cqe, true
		}
		remain := deadline - p.Now()
		if remain <= 0 {
			return CQE{}, false
		}
		c.cond.WaitTimeout(p, remain)
	}
}

// PostRecvList posts a batch of receive buffers behind one doorbell.
// The whole list is validated before any buffer is enqueued, so a bad
// entry leaves the receive queue untouched.
func (q *QP) PostRecvList(rs []PostedRecv) error {
	if len(rs) == 0 {
		return ErrEmptyList
	}
	for k := range rs {
		r := &rs[k]
		if r.MR == nil || r.MR.node != q.nic.node {
			return ErrBadMR
		}
		if err := r.MR.checkRange(r.Off, r.Len); err != nil {
			return err
		}
	}
	for _, r := range rs {
		q.pushRecv(r, 1)
	}
	q.rearmRecvLow()
	return nil
}
