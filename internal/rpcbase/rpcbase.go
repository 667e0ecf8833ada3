// Package rpcbase implements the RPC systems the paper compares LITE
// against, each with the communication pattern and CPU behaviour of
// the original:
//
//   - HERD-style RPC [38]: requests are one-sided RDMA writes into
//     per-client regions that dedicated server threads busy-poll;
//     responses are unreliable-datagram sends.
//   - FaSST-style RPC [39]: both directions are UD sends; a master
//     poller thread receives requests and runs the handler inline.
//   - FaRM-style messaging [19]: both directions are one-sided RDMA
//     writes into ring buffers that the receiver busy-polls.
//   - Send/recv-based RPC memory accounting for the paper's Figure 12:
//     receive buffers must be pre-posted at worst-case sizes, wasting
//     memory that LITE's write-imm rings do not.
//
// All of them run on the same simulated verbs substrate as LITE, so
// every comparison in the evaluation is between two executable
// implementations.
package rpcbase

import (
	"encoding/binary"

	"lite/internal/simtime"
)

// Handler executes one RPC request and returns the response payload.
type Handler func(input []byte) []byte

// frame layout helpers shared by the baselines:
// [8B seq/token][4B length][payload].
const frameHdr = 12

func putFrame(dst []byte, seq uint64, payload []byte) int {
	binary.LittleEndian.PutUint64(dst[0:], seq)
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(payload)))
	copy(dst[frameHdr:], payload)
	return frameHdr + len(payload)
}

func parseFrame(src []byte) (seq uint64, payload []byte) {
	seq = binary.LittleEndian.Uint64(src[0:])
	n := binary.LittleEndian.Uint32(src[8:])
	if int(frameHdr+n) > len(src) {
		return seq, nil
	}
	return seq, src[frameHdr : frameHdr+n]
}

// busyWait parks p on cond until ready() holds, charging the entire
// wait to p's CPU account — the defining cost of polling designs.
func busyWait(p *simtime.Proc, cond *simtime.Cond, ready func() bool) {
	for !ready() {
		t0 := p.Now()
		cond.Wait(p)
		p.Charge(p.Now() - t0)
	}
}
