package rnic

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
)

// soloLatency posts one signaled request of kind and size on an idle
// two-node cluster at instant 0 and returns the instant its send
// completion is pushed.
func soloLatency(t *testing.T, kind OpKind, size int64) simtime.Time {
	t.Helper()
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 256<<10, allPerm)
	dst := c.physMR(t, 1, 256<<10, allPerm)
	qa, qb := c.rcPair(0, 1)
	if err := qb.PostRecv(PostedRecv{MR: dst, Len: 256 << 10, WRID: 9}); err != nil {
		t.Fatal(err)
	}
	var done simtime.Time
	c.env.Go("poster", func(p *simtime.Proc) {
		wr := WR{Kind: kind, WRID: 1, Signaled: true, LocalMR: src, Len: size, RemoteKey: dst.Key()}
		if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
			t.Error(err)
			return
		}
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("%v of %d B: status %v", kind, size, cqe.Status)
		}
		done = p.Now()
	})
	c.run(t)
	return done
}

// A message of at most one MTU is booked exactly as before packets:
// each kind and size completes at the instant whole-message booking
// gave it. So do a UD datagram's delivery and a WRITE_IMM that waits
// for a receive through RNR retries.
func TestOnePacketMessagesKeepTheirTimeline(t *testing.T) {
	for _, tc := range []struct {
		kind OpKind
		size int64
		want simtime.Time
	}{
		{OpWrite, 8, 4262}, {OpWrite, 256, 4377}, {OpWrite, 4096, 6145},
		{OpWriteImm, 8, 4262}, {OpWriteImm, 256, 4377}, {OpWriteImm, 4096, 6145},
		{OpRead, 8, 4356}, {OpRead, 256, 4471}, {OpRead, 4096, 6239},
		{OpFetchAdd, 8, 4769}, {OpCmpSwap, 8, 4769},
	} {
		if got := soloLatency(t, tc.kind, tc.size); got != tc.want {
			t.Errorf("%v of %d B completes at %v, want %v", tc.kind, tc.size, got, tc.want)
		}
	}
	if got, want := udDelivery(t, 64), simtime.Time(3798); got != want {
		t.Errorf("UD SEND of 64 B is received at %v, want %v", got, want)
	}
	for _, tc := range []struct {
		recvAt simtime.Time
		want   simtime.Time
		st     Status
	}{
		// The first delivery attempt finds no receive; one posted before
		// the first retry takes it.
		{5 * time.Microsecond, 6262, StatusOK},
		// No receive: the last of RNRRetryMax retries fails it.
		{-1, 35769, StatusRNRExceeded},
	} {
		if got, st := writeImmRNR(t, tc.recvAt); got != tc.want || st != tc.st {
			t.Errorf("WRITE_IMM with a receive at %v completes %v at %v, want %v at %v", tc.recvAt, st, got, tc.st, tc.want)
		}
	}
}

// udDelivery sends one size-byte UD datagram to a posted receive on an
// idle two-node cluster at instant 0 and returns the instant its
// receive completion is pushed.
func udDelivery(t *testing.T, size int64) simtime.Time {
	t.Helper()
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	rbuf := c.physMR(t, 1, 4096, allPerm)
	qa := c.nic[0].CreateQP(UD, c.nic[0].CreateCQ(), c.nic[0].CreateCQ())
	qb := c.nic[1].CreateQP(UD, c.nic[1].CreateCQ(), c.nic[1].CreateCQ())
	if err := qb.PostRecv(PostedRecv{MR: rbuf, Len: 4096, WRID: 9}); err != nil {
		t.Fatal(err)
	}
	var done simtime.Time
	c.env.Go("sender", func(p *simtime.Proc) {
		wr := WR{Kind: OpSend, WRID: 1, LocalMR: src, Len: size, DestNode: 1, DestQPN: qb.QPN()}
		if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
			t.Error(err)
			return
		}
		if cqe := qb.RecvCQ().Poll(p); cqe.Status != StatusOK || cqe.Len != size {
			t.Errorf("recv cqe = %+v", cqe)
		}
		done = p.Now()
	})
	c.run(t)
	return done
}

// writeImmRNR posts one signaled 8 B WRITE_IMM at instant 0 to a peer
// with no posted receive, which posts one at recvAt (never, if recvAt
// is negative), and returns the instant and status of its send
// completion.
func writeImmRNR(t *testing.T, recvAt simtime.Time) (simtime.Time, Status) {
	t.Helper()
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 4096, allPerm)
	dst := c.physMR(t, 1, 4096, allPerm)
	qa, qb := c.rcPair(0, 1)
	if recvAt >= 0 {
		c.env.Go("late-poster", func(p *simtime.Proc) {
			p.Sleep(recvAt)
			if err := qb.PostRecv(PostedRecv{MR: dst, WRID: 9}); err != nil {
				t.Error(err)
			}
		})
	}
	var done simtime.Time
	var st Status
	c.env.Go("poster", func(p *simtime.Proc) {
		wr := WR{Kind: OpWriteImm, WRID: 1, Signaled: true, LocalMR: src, Len: 8, RemoteKey: dst.Key()}
		if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
			t.Error(err)
			return
		}
		st = qa.SendCQ().Poll(p).Status
		done = p.Now()
	})
	c.run(t)
	return done, st
}

// packetTimes returns one MTU packet's DMA time and its serialisation
// with its header, and the one-way propagation plus switch delay.
func packetTimes(cfg *params.Config) (dma, ser, prop simtime.Time) {
	return params.TransferTime(mtu, cfg.DMABandwidth),
		params.TransferTime(int64(mtu+cfg.WireHeader), cfg.LinkBandwidth),
		cfg.PropagationDelay + cfg.SwitchDelay
}

// A lone 64 KB WRITE and a lone 64 KB READ are pipelined at packet
// granularity: one packet's DMA at each end, plus 16 packet
// serialisations with their headers, plus the fixed costs. Booked
// whole, each paid the DMA of all 64 KB at both ends.
func TestLone64KIsPipelined(t *testing.T) {
	c := newCluster(t, 2)
	cfg := &c.cfg
	dma, ser, prop := packetTimes(cfg)
	// A cold post: the NIC misses its QP context and the region's key.
	cold := cfg.NICProcess + cfg.QPMiss + cfg.MRKeyMissBase
	ack := prop + params.TransferTime(int64(cfg.AckBytes), cfg.LinkBandwidth) + cfg.NICProcess/2
	request := prop + params.TransferTime(int64(cfg.WireHeader), cfg.LinkBandwidth)
	if got, want := soloLatency(t, OpWrite, 64<<10), cold+dma+16*ser+prop+dma+ack; got != want {
		t.Errorf("64 KB WRITE completes at %v, want %v", got, want)
	}
	if got, want := soloLatency(t, OpRead, 64<<10), cold+request+cold+dma+16*ser+prop+dma; got != want {
		t.Errorf("64 KB READ completes at %v, want %v", got, want)
	}
}

// smallBehindBulk posts a 64 KB WRITE on one QP at instant 0 and, 5 us
// later, a 64 B WRITE to the same node: on the same QP when sameQP,
// else on a second QP. With bulk false the first WRITE is 8 B, which
// warms the same caches but holds no link. It returns the small
// WRITE's latency from its post.
func smallBehindBulk(t *testing.T, bulk, sameQP bool) simtime.Time {
	t.Helper()
	c := newCluster(t, 2)
	src := c.physMR(t, 0, 128<<10, allPerm)
	dst := c.physMR(t, 1, 128<<10, allPerm)
	q1, _ := c.rcPair(0, 1)
	q2 := q1
	if !sameQP {
		q2, _ = c.rcPair(0, 1)
	}
	first := int64(8)
	if bulk {
		first = 64 << 10
	}
	var lat simtime.Time
	c.env.Go("poster", func(p *simtime.Proc) {
		if err := c.nic[0].PostSend(p.Now(), q1, WR{Kind: OpWrite, WRID: 1, LocalMR: src, Len: first, RemoteKey: dst.Key()}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(5 * time.Microsecond)
		at := p.Now()
		if err := c.nic[0].PostSend(at, q2, WR{Kind: OpWrite, WRID: 2, Signaled: true, LocalMR: src, LocalOff: 96 << 10, Len: 64, RemoteKey: dst.Key(), RemoteOff: 96 << 10}); err != nil {
			t.Error(err)
			return
		}
		if cqe := q2.SendCQ().Poll(p); cqe.WRID != 2 || cqe.Status != StatusOK {
			t.Errorf("cqe = %+v, want WRID 2 OK", cqe)
		}
		lat = p.Now() - at
	})
	c.run(t)
	return lat
}

// A small WRITE on another QP interleaves with a bulk WRITE to the same
// node packet by packet, so it waits about a packet per hop, not the
// bulk's 64 KB: the bulk keeps at most one packet waiting for the wire.
// (Released as fast as the DMA engine reads them, 5 us in the bulk has
// booked the egress for 5 more.) On the bulk's own QP, RC order holds
// it behind the bulk's last packet.
func TestSmallWriteInterleavesWithBulk(t *testing.T) {
	cfg := params.Default()
	dma, ser, prop := packetTimes(&cfg)
	solo := smallBehindBulk(t, false, false)
	if got := smallBehindBulk(t, true, false); got > solo+2*ser {
		t.Errorf("64 B WRITE on another QP takes %v behind a 64 KB WRITE, more than two packet times (%v) over its solo %v", got, 2*ser, solo)
	}
	// The bulk's last packet reaches node 1 at cold+dma+16*ser+prop;
	// the small WRITE was posted 5 us in.
	cold := cfg.NICProcess + cfg.QPMiss + cfg.MRKeyMissBase
	lastPacket := cold + dma + 16*ser + prop - 5*time.Microsecond
	if got := smallBehindBulk(t, true, true); got <= lastPacket {
		t.Errorf("64 B WRITE on the bulk's QP takes %v, not past the bulk's last packet at %v", got, lastPacket)
	}
}

// A second READ on a QP gets its response after the first READ's 64 KB
// response, even posted separately: RC orders a QP's READ responses. A
// READ on another QP does not wait.
func TestReadResponsesKeepQPOrder(t *testing.T) {
	for _, sameQP := range []bool{true, false} {
		c := newCluster(t, 2)
		dst := c.physMR(t, 1, 128<<10, allPerm)
		q1, _ := c.rcPair(0, 1)
		q2 := q1
		if !sameQP {
			q2, _ = c.rcPair(0, 1)
		}
		done := map[uint64]simtime.Time{}
		poll := func(q *QP, n int) {
			c.env.Go("poller", func(p *simtime.Proc) {
				for k := 0; k < n; k++ {
					cqe := q.SendCQ().Poll(p)
					if cqe.Status != StatusOK {
						t.Errorf("cqe = %+v, want OK", cqe)
					}
					done[cqe.WRID] = p.Now()
				}
			})
		}
		if sameQP {
			poll(q1, 2)
		} else {
			poll(q1, 1)
			poll(q2, 1)
		}
		big, small := make([]byte, 64<<10), make([]byte, 64)
		c.env.Go("reader", func(p *simtime.Proc) {
			if err := c.nic[0].PostSend(p.Now(), q1, WR{Kind: OpRead, WRID: 1, Signaled: true, LocalBuf: big, Len: 64 << 10, RemoteKey: dst.Key()}); err != nil {
				t.Error(err)
			}
			if err := c.nic[0].PostSend(p.Now(), q2, WR{Kind: OpRead, WRID: 2, Signaled: true, LocalBuf: small, Len: 64, RemoteKey: dst.Key()}); err != nil {
				t.Error(err)
			}
		})
		c.run(t)
		if sameQP && done[2] < done[1] {
			t.Errorf("same QP: 64 B READ completes at %v, before the 64 KB READ at %v", done[2], done[1])
		}
		if !sameQP && done[2] >= done[1] {
			t.Errorf("other QP: 64 B READ completes at %v, not before the 64 KB READ at %v", done[2], done[1])
		}
	}
}

// A WR held behind a multi-packet WRITE delivers the bytes its buffer
// held at post: LITE reuses its buffers as soon as PostSendList
// returns, so the NIC must not read them at release.
func TestHeldWriteDeliversPostTimeBytes(t *testing.T) {
	c := newCluster(t, 2)
	dst := c.physMR(t, 1, 128<<10, allPerm)
	qa, _ := c.rcPair(0, 1)
	bulk := make([]byte, 64<<10)
	buf := bytes.Repeat([]byte{7}, 64)
	c.env.Go("poster", func(p *simtime.Proc) {
		err := c.nic[0].PostSendList(p.Now(), qa, []WR{
			{Kind: OpWrite, WRID: 1, LocalBuf: bulk, Len: 64 << 10, RemoteKey: dst.Key()},
			{Kind: OpWrite, WRID: 2, Signaled: true, LocalBuf: buf, Len: 64, RemoteKey: dst.Key(), RemoteOff: 96 << 10},
		})
		if err != nil {
			t.Error(err)
			return
		}
		copy(buf, bytes.Repeat([]byte{9}, 64))
		if cqe := qa.SendCQ().Poll(p); cqe.WRID != 2 || cqe.Status != StatusOK {
			t.Errorf("cqe = %+v, want WRID 2 OK", cqe)
		}
	})
	c.run(t)
	got := make([]byte, 64)
	if err := dst.ReadAt(96<<10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{7}, 64)) {
		t.Errorf("held WRITE delivered %v, want the post-time bytes (7s)", got[:8])
	}
	if out(c.reg) != 0 {
		t.Errorf("%d payload buffers still out", out(c.reg))
	}
}

// A dropped packet ends its message: no later packet of it is
// released, the WR fails after the RC transport timeout, and the WR
// held behind it is released and completes.
func TestDroppedPacketFailsTheMessage(t *testing.T) {
	c := newCluster(t, 2)
	dom := obs.NewDomain(2)
	c.reg.fab.SetObs(dom.Global())
	dst := c.physMR(t, 1, 128<<10, allPerm)
	qa, _ := c.rcPair(0, 1)
	packets := 0
	c.reg.fab.SetDropHook(func(simtime.Time, int, int, int64) bool {
		packets++
		return packets == 3
	})
	bulk, small := make([]byte, 64<<10), make([]byte, 64)
	c.env.Go("poster", func(p *simtime.Proc) {
		start := p.Now()
		for k, wr := range []WR{
			{Kind: OpWrite, WRID: 1, Signaled: true, LocalBuf: bulk, Len: 64 << 10, RemoteKey: dst.Key()},
			{Kind: OpWrite, WRID: 2, Signaled: true, LocalBuf: small, Len: 64, RemoteKey: dst.Key()},
		} {
			if err := c.nic[0].PostSend(p.Now(), qa, wr); err != nil {
				t.Errorf("post %d: %v", k, err)
				return
			}
		}
		if cqe := qa.SendCQ().Poll(p); cqe.WRID != 2 || cqe.Status != StatusOK {
			t.Errorf("first cqe = %+v, want the held WRID 2 OK", cqe)
		}
		if cqe := qa.SendCQ().Poll(p); cqe.WRID != 1 || cqe.Status != StatusTimeout {
			t.Errorf("second cqe = %+v, want WRID 1 TIMEOUT", cqe)
		}
		if waited := p.Now() - start; waited < c.cfg.RCTimeout {
			t.Errorf("failed after %v, before the %v transport timeout", waited, c.cfg.RCTimeout)
		}
	})
	c.run(t)
	// The bulk's first two packets (its third was dropped), then the
	// small WRITE and its ack.
	if got := dom.Total("fabric.packets"); got != 4 {
		t.Errorf("fabric carried %d packets, want 4", got)
	}
	if out(c.reg) != 0 {
		t.Errorf("%d payload buffers still out", out(c.reg))
	}
}

// A multi-packet READ response reads the whole region at one instant,
// its first packet's source DMA, as a one-packet response does: the
// first bytes (a version header, say) are read as on hardware, where
// the first packet leaves first, and a write that lands while the
// later packets are still leaving shows in none of them.
func TestMultiPacketReadSnapshotsAtFirstPacket(t *testing.T) {
	const size = 64 << 10
	c := newCluster(t, 2)
	cfg := &c.cfg
	dma, ser, prop := packetTimes(cfg)
	cold := cfg.NICProcess + cfg.QPMiss + cfg.MRKeyMissBase
	request := prop + params.TransferTime(int64(cfg.WireHeader), cfg.LinkBandwidth)
	firstDMA := cold + request + cold + dma
	dst := c.physMR(t, 1, size, allPerm)
	qa, _ := c.rcPair(0, 1)
	old, neu := bytes.Repeat([]byte{1}, size), bytes.Repeat([]byte{2}, size)
	if err := dst.WriteAt(0, old); err != nil {
		t.Fatal(err)
	}
	c.env.Go("responder-cpu", func(p *simtime.Proc) {
		p.Sleep(firstDMA + 5*ser) // between the first packet and the last
		if err := dst.WriteAt(0, neu); err != nil {
			t.Error(err)
		}
	})
	got := make([]byte, size)
	c.env.Go("reader", func(p *simtime.Proc) {
		if err := c.nic[0].PostSend(p.Now(), qa, WR{Kind: OpRead, WRID: 1, Signaled: true, LocalBuf: got, Len: size, RemoteKey: dst.Key()}); err != nil {
			t.Error(err)
			return
		}
		if cqe := qa.SendCQ().Poll(p); cqe.Status != StatusOK {
			t.Errorf("cqe = %+v, want OK", cqe)
		}
	})
	c.run(t)
	if !bytes.Equal(got, old) {
		t.Errorf("READ returned %d new bytes; want the region as it was at the first packet's DMA", bytes.Count(got, []byte{2}))
	}
}

// fabric.queue_wait counts contention only. The later packets of a
// lone 64 KB WRITE wait on the egress for their own predecessors, which
// is the message's own pacing, so it records no wait; a 64 B WRITE on
// another QP 5 us into it waits for a bulk packet on the link, and that
// wait is recorded.
func TestQueueWaitCountsContentionOnly(t *testing.T) {
	maxWait := func(small bool) simtime.Time {
		c := newCluster(t, 2)
		dom := obs.NewDomain(2)
		c.reg.fab.SetObs(dom.Global())
		src := c.physMR(t, 0, 128<<10, allPerm)
		dst := c.physMR(t, 1, 128<<10, allPerm)
		q1, _ := c.rcPair(0, 1)
		q2, _ := c.rcPair(0, 1)
		c.env.Go("poster", func(p *simtime.Proc) {
			if err := c.nic[0].PostSend(p.Now(), q1, WR{Kind: OpWrite, WRID: 1, Signaled: true, LocalMR: src, Len: 64 << 10, RemoteKey: dst.Key()}); err != nil {
				t.Error(err)
				return
			}
			if small {
				p.Sleep(5 * time.Microsecond)
				if err := c.nic[0].PostSend(p.Now(), q2, WR{Kind: OpWrite, WRID: 2, Signaled: true, LocalMR: src, Len: 64, RemoteKey: dst.Key(), RemoteOff: 96 << 10}); err != nil {
					t.Error(err)
					return
				}
				q2.SendCQ().Poll(p)
			}
			q1.SendCQ().Poll(p)
		})
		c.run(t)
		if got := dom.Total("fabric.packets"); got < 17 {
			t.Fatalf("fabric carried %d packets, want the bulk's 16 and its ack at least", got)
		}
		return dom.Global().Histogram("fabric.queue_wait").Max()
	}
	if got := maxWait(false); got != 0 {
		t.Errorf("lone 64 KB WRITE: largest queue wait %v, want 0", got)
	}
	if got := maxWait(true); got <= 0 {
		t.Errorf("64 B WRITE behind another QP's 64 KB WRITE: largest queue wait %v, want > 0", got)
	}
}
