package rpcbase

import (
	"fmt"
	"time"

	"lite/internal/cluster"
	"lite/internal/hostmem"
	"lite/internal/params"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/verbs"
)

// herdSlotSize is the per-client request region size (one in-flight
// request per client, as in HERD).
const herdSlotSize = 8192

// HERDServer serves RPCs in the HERD style: each client gets a
// dedicated request region written with one-sided RDMA writes; server
// worker threads busy-poll the regions of the clients assigned to
// them and answer over UD sends.
type HERDServer struct {
	cls     *cluster.Cluster
	node    int
	ctx     *verbs.Context
	handler Handler
	ud      *rnic.QP
	slots   []*herdSlot
	// newWork wakes workers; in reality they spin over their regions.
	newWork simtime.Cond

	// RegionChecks counts slot scans, a proxy for the per-client
	// polling overhead the paper calls out.
	RegionChecks int64
}

type herdSlot struct {
	client   int
	clientUD int // client's UD QPN for the response
	mr       *rnic.MR
	pa       hostmem.PAddr
	lastSeq  uint64
}

// StartHERD starts a HERD server at node with the given number of
// polling worker threads.
func StartHERD(cls *cluster.Cluster, node, workers int, handler Handler) *HERDServer {
	nd := cls.Nodes[node]
	s := &HERDServer{
		cls:     cls,
		node:    node,
		ctx:     verbs.Open(nd.NIC, nd.KernelAS),
		handler: handler,
	}
	s.ud = s.ctx.CreateQP(rnic.UD, s.ctx.CreateCQ(), s.ctx.CreateCQ())
	for w := 0; w < workers; w++ {
		w := w
		cls.GoDaemonOn(node, fmt.Sprintf("herd-worker%d", w), func(p *simtime.Proc) {
			s.workerLoop(p, w, workers)
		})
	}
	return s
}

// workerLoop scans this worker's share of client regions, burning CPU
// the whole time it waits (HERD's servers spin).
func (s *HERDServer) workerLoop(p *simtime.Proc, w, workers int) {
	buf := make([]byte, herdSlotSize)
	for {
		progress := false
		for idx, slot := range s.slots {
			if idx%workers != w {
				continue
			}
			s.RegionChecks++
			p.Work(30) // ~30ns to check a region's valid header
			if err := s.cls.Nodes[s.node].Mem.Read(slot.pa, buf[:frameHdr]); err != nil {
				continue
			}
			seq, _ := parseFrame(buf[:frameHdr])
			if seq <= slot.lastSeq {
				continue
			}
			_ = s.cls.Nodes[s.node].Mem.Read(slot.pa, buf)
			_, payload := parseFrame(buf)
			slot.lastSeq = seq
			progress = true
			out := s.handler(payload)
			// Request dispatch and response staging on the worker core.
			p.Work(200*time.Nanosecond + params.TransferTime(int64(len(out)), params.Default().MemcpyBandwidth))
			resp := make([]byte, frameHdr+len(out))
			putFrame(resp, seq, out)
			_ = s.ctx.PostSend(p, s.ud, rnic.WR{
				Kind: rnic.OpSend, Signaled: false,
				LocalBuf: resp, Len: int64(len(resp)),
				DestNode: slot.client, DestQPN: slot.clientUD,
			})
		}
		if !progress {
			// Spin: wait for the next write to any region, charging the
			// whole gap as CPU.
			t0 := p.Now()
			s.newWork.Wait(p)
			p.Charge(p.Now() - t0)
		}
	}
}

// HERDClient is one client's connection to a HERD server.
type HERDClient struct {
	cls    *cluster.Cluster
	node   int
	ctx    *verbs.Context
	server *HERDServer
	rc     *rnic.QP
	ud     *rnic.QP
	slot   *herdSlot
	rkey   uint32
	seq    uint64
	// UD receive buffers, indexed by WRID.
	recvMR   *rnic.MR
	recvSize int64
	nrecv    int
}

// ConnectHERD registers a new client with the server and builds its
// queue pairs.
func ConnectHERD(cls *cluster.Cluster, s *HERDServer, clientNode int) (*HERDClient, error) {
	nd := cls.Nodes[clientNode]
	c := &HERDClient{
		cls:    cls,
		node:   clientNode,
		ctx:    verbs.Open(nd.NIC, nd.KernelAS),
		server: s,
	}
	// Client-side QPs.
	c.ud = c.ctx.CreateQP(rnic.UD, c.ctx.CreateCQ(), c.ctx.CreateCQ())
	sqp := s.ctx.CreateQP(rnic.RC, s.ctx.CreateCQ(), s.ctx.CreateCQ())
	c.rc = c.ctx.CreateQP(rnic.RC, c.ctx.CreateCQ(), c.ctx.CreateCQ())
	c.rc.Connect(s.node, sqp.QPN())
	sqp.Connect(clientNode, c.rc.QPN())

	// Server-side request region for this client.
	pa, err := cls.Nodes[s.node].Mem.AllocContiguous(herdSlotSize)
	if err != nil {
		return nil, err
	}
	mr, err := cls.Nodes[s.node].NIC.RegisterPhysMR(cls.Nodes[s.node].KernelAS, pa, herdSlotSize, rnic.PermRead|rnic.PermWrite)
	if err != nil {
		return nil, err
	}
	slot := &herdSlot{client: clientNode, clientUD: c.ud.QPN(), mr: mr, pa: pa}
	s.slots = append(s.slots, slot)
	c.slot = slot
	c.rkey = mr.Key()
	// Wake server workers when the region is written.
	env := cls.Env
	cls.Nodes[s.node].Mem.AddWatch(pa, herdSlotSize, func() { s.newWork.Broadcast(env) })

	// Client UD receive buffers.
	c.recvSize = herdSlotSize
	c.nrecv = 64
	rpa, err := nd.Mem.AllocContiguous(c.recvSize * int64(c.nrecv))
	if err != nil {
		return nil, err
	}
	c.recvMR, err = nd.NIC.RegisterPhysMR(nd.KernelAS, rpa, c.recvSize*int64(c.nrecv), rnic.PermRead|rnic.PermWrite)
	if err != nil {
		return nil, err
	}
	for k := 0; k < c.nrecv; k++ {
		_ = c.ud.PostRecv(rnic.PostedRecv{MR: c.recvMR, Off: int64(k) * c.recvSize, Len: c.recvSize, WRID: uint64(k)})
	}
	return c, nil
}

// Call performs one RPC: a one-sided write of the request into the
// server's per-client region, then a busy-poll of the UD receive CQ
// for the response.
func (c *HERDClient) Call(p *simtime.Proc, input []byte) ([]byte, error) {
	c.seq++
	req := make([]byte, frameHdr+len(input))
	putFrame(req, c.seq, input)
	// HERD writes payload-then-header so the header flip publishes the
	// request; the simulated write commits atomically, so one write
	// suffices.
	if err := c.ctx.PostSend(p, c.rc, rnic.WR{
		Kind: rnic.OpWrite, Signaled: false,
		LocalBuf: req, Len: int64(len(req)),
		RemoteKey: c.rkey, RemoteOff: 0,
	}); err != nil {
		return nil, err
	}
	for {
		cqe := c.ctx.PollCQ(p, c.ud.RecvCQ()) // busy-poll, CPU charged
		buf := make([]byte, cqe.Len)
		off := int64(cqe.RecvWRID) * c.recvSize
		_ = c.recvMR.ReadAt(off, buf)
		_ = c.ud.PostRecv(rnic.PostedRecv{MR: c.recvMR, Off: off, Len: c.recvSize, WRID: cqe.RecvWRID})
		seq, payload := parseFrame(buf)
		if seq == c.seq {
			return append([]byte(nil), payload...), nil
		}
		// Stale or reordered response: keep polling.
	}
}
