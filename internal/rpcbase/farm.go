package rpcbase

import (
	"lite/internal/cluster"
	"lite/internal/hostmem"
	"lite/internal/rnic"
	"lite/internal/simtime"
	"lite/internal/verbs"
)

// farmRingSize is each direction's message ring.
const farmRingSize = 1 << 20

// FaRMPair is a FaRM-style message channel between two nodes: each
// direction is a ring buffer in the receiver's memory, written with
// one-sided RDMA writes and busy-polled by the receiver (the paper
// emulates an RPC on FaRM as two such writes).
type FaRMPair struct {
	a, b *farmEnd
}

type farmEnd struct {
	cls  *cluster.Cluster
	node int
	ctx  *verbs.Context
	qp   *rnic.QP

	// Inbound ring (in this node's memory).
	inPA   hostmem.PAddr
	inCond simtime.Cond
	inHead int64

	// Outbound ring (in the peer's memory).
	outKey  uint32
	outPA   hostmem.PAddr
	outTail int64
	peer    *farmEnd
	seq     uint64
	lastSeq uint64
}

// NewFaRMPair builds a bidirectional FaRM message channel between two
// nodes.
func NewFaRMPair(cls *cluster.Cluster, nodeA, nodeB int) (*FaRMPair, error) {
	mk := func(node int) (*farmEnd, *rnic.MR, error) {
		nd := cls.Nodes[node]
		e := &farmEnd{cls: cls, node: node, ctx: verbs.Open(nd.NIC, nd.KernelAS)}
		pa, err := nd.Mem.AllocContiguous(farmRingSize)
		if err != nil {
			return nil, nil, err
		}
		mr, err := nd.NIC.RegisterPhysMR(nd.KernelAS, pa, farmRingSize, rnic.PermRead|rnic.PermWrite)
		if err != nil {
			return nil, nil, err
		}
		e.inPA = pa
		env := cls.Env
		nd.Mem.AddWatch(pa, farmRingSize, func() { e.inCond.Broadcast(env) })
		return e, mr, nil
	}
	ea, mra, err := mk(nodeA)
	if err != nil {
		return nil, err
	}
	eb, mrb, err := mk(nodeB)
	if err != nil {
		return nil, err
	}
	ea.outKey, ea.outPA = mrb.Key(), eb.inPA
	eb.outKey, eb.outPA = mra.Key(), ea.inPA
	ea.peer, eb.peer = eb, ea
	qa := ea.ctx.CreateQP(rnic.RC, ea.ctx.CreateCQ(), ea.ctx.CreateCQ())
	qb := eb.ctx.CreateQP(rnic.RC, eb.ctx.CreateCQ(), eb.ctx.CreateCQ())
	qa.Connect(nodeB, qb.QPN())
	qb.Connect(nodeA, qa.QPN())
	ea.qp, eb.qp = qa, qb
	return &FaRMPair{a: ea, b: eb}, nil
}

// End returns the endpoint at the given node.
func (f *FaRMPair) End(node int) *FaRMEnd {
	if f.a.node == node {
		return (*FaRMEnd)(f.a)
	}
	return (*FaRMEnd)(f.b)
}

// FaRMEnd is one endpoint of a FaRM message channel.
type FaRMEnd farmEnd

// Send writes one message into the peer's ring with a single
// one-sided RDMA write (unsignaled; delivery is detected by the
// receiver polling memory).
func (e *FaRMEnd) Send(p *simtime.Proc, payload []byte) error {
	en := (*farmEnd)(e)
	en.seq++
	msg := make([]byte, frameHdr+len(payload))
	putFrame(msg, en.seq, payload)
	// One slot per message, fixed stride for simplicity of polling.
	slot := en.outTail % (farmRingSize / herdSlotSize)
	en.outTail++
	return en.ctx.PostSend(p, en.qp, rnic.WR{
		Kind: rnic.OpWrite, Signaled: false,
		LocalBuf: msg, Len: int64(len(msg)),
		RemoteKey: en.outKey, RemoteOff: slot * herdSlotSize,
	})
}

// Recv busy-polls the inbound ring for the next message (CPU charged,
// as FaRM receivers spin).
func (e *FaRMEnd) Recv(p *simtime.Proc) ([]byte, error) {
	en := (*farmEnd)(e)
	buf := make([]byte, herdSlotSize)
	slot := en.inHead % (farmRingSize / herdSlotSize)
	want := en.lastSeq + 1
	for {
		if err := en.cls.Nodes[en.node].Mem.Read(en.inPA+hostmem.PAddr(slot*herdSlotSize), buf); err != nil {
			return nil, err
		}
		seq, payload := parseFrame(buf)
		if seq >= want {
			en.lastSeq = seq
			en.inHead++
			return append([]byte(nil), payload...), nil
		}
		t0 := p.Now()
		en.inCond.Wait(p)
		p.Charge(p.Now() - t0)
	}
}
