// Package tcpip simulates the TCP/IP-over-InfiniBand (IPoIB) stack the
// paper uses as its conventional-networking baseline. It shares the
// same fabric ports as the RDMA NICs — IPoIB rides the same physical
// link — but pays the kernel network-stack software costs on both
// sides of every message: per-message socket overhead, per-packet
// processing, and per-byte copy/checksum bandwidth.
//
// Connections are reliable and message-oriented (boundaries are
// preserved, like SOCK_SEQPACKET); all the paper's TCP baselines
// exchange length-delimited messages, so this loses no generality.
package tcpip

import (
	"errors"

	"lite/internal/fabric"
	"lite/internal/params"
	"lite/internal/simtime"
)

// Errors returned by the stack.
var (
	ErrClosed      = errors.New("tcpip: connection closed")
	ErrRefused     = errors.New("tcpip: connection refused")
	ErrUnreachable = errors.New("tcpip: destination unreachable")
	ErrPortInUse   = errors.New("tcpip: port in use")
)

// Network is the cluster-wide IPoIB network.
type Network struct {
	env    *simtime.Env
	cfg    *params.Config
	fab    *fabric.Fabric
	stacks map[int]*Stack
}

// NewNetwork returns an IPoIB network over the given fabric. The
// fabric ports must already exist (they are shared with the RDMA NICs).
func NewNetwork(env *simtime.Env, cfg *params.Config, fab *fabric.Fabric) *Network {
	return &Network{env: env, cfg: cfg, fab: fab, stacks: make(map[int]*Stack)}
}

// Stack returns (creating on first use) the TCP stack of a node.
func (n *Network) Stack(node int) *Stack {
	s, ok := n.stacks[node]
	if !ok {
		s = &Stack{net: n, node: node, listeners: make(map[int]*Listener)}
		n.stacks[node] = s
	}
	return s
}

// Stack is one node's TCP stack.
type Stack struct {
	net       *Network
	node      int
	listeners map[int]*Listener
}

// Listener accepts incoming connections on one port.
type Listener struct {
	stack   *Stack
	port    int
	backlog []*Conn
	cond    simtime.Cond
	closed  bool
}

// Listen opens a listener on port.
func (s *Stack) Listen(port int) (*Listener, error) {
	if l, ok := s.listeners[port]; ok && !l.closed {
		return nil, ErrPortInUse
	}
	l := &Listener{stack: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection arrives and returns it.
func (l *Listener) Accept(p *simtime.Proc) (*Conn, error) {
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		l.cond.Wait(p)
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// direction is one flow of a full-duplex connection.
type direction struct {
	queue    [][]byte
	arrive   simtime.Cond
	inflight int64
	credit   simtime.Cond
	closed   bool
}

// connState is the state shared by a connection's two handles.
type connState struct {
	net  *Network
	a, b int       // node ids; a dialed b
	ab   direction // a -> b flow
	ba   direction // b -> a flow
}

// Conn is one endpoint's handle on an established connection.
type Conn struct {
	st    *connState
	local int
}

// RemoteNode returns the peer's node.
func (c *Conn) RemoteNode() int {
	if c.local == c.st.a {
		return c.st.b
	}
	return c.st.a
}

func (c *Conn) out() *direction {
	if c.local == c.st.a {
		return &c.st.ab
	}
	return &c.st.ba
}

func (c *Conn) in() *direction {
	if c.local == c.st.a {
		return &c.st.ba
	}
	return &c.st.ab
}

// Dial connects to (node, port), paying one handshake round trip, and
// returns the caller's connection handle.
func (s *Stack) Dial(p *simtime.Proc, node, port int) (*Conn, error) {
	cfg := s.net.cfg
	if !s.net.fab.Reachable(s.node, node) || !s.net.fab.Reachable(node, s.node) {
		return nil, ErrUnreachable
	}
	rs := s.net.Stack(node)
	l, ok := rs.listeners[port]
	if !ok || l.closed {
		return nil, ErrRefused
	}
	p.Work(cfg.TCPPerMessage)
	st := &connState{net: s.net, a: s.node, b: node}
	local := &Conn{st: st, local: s.node}
	remote := &Conn{st: st, local: node}

	synArrive, ok := s.net.fab.ReservePath(p.Now(), s.node, node, 64)
	if !ok {
		return nil, ErrUnreachable
	}
	ackArrive, ok := s.net.fab.ReservePath(synArrive, node, s.node, 64)
	if !ok {
		return nil, ErrUnreachable
	}
	s.net.env.At(synArrive, func(e *simtime.Env) {
		l.backlog = append(l.backlog, remote)
		l.cond.Signal(e)
	})
	p.SleepUntil(ackArrive)
	return local, nil
}

// Send transmits one message, blocking while the flow-control window
// is full. The sender pays the per-message, per-packet, and per-byte
// software costs before the message reaches the wire.
func (c *Conn) Send(p *simtime.Proc, data []byte) error {
	cfg := c.st.net.cfg
	d := c.out()
	if d.closed {
		return ErrClosed
	}
	n := int64(len(data))
	for d.inflight > 0 && d.inflight+n > cfg.TCPWindow {
		d.credit.Wait(p)
		if d.closed {
			return ErrClosed
		}
	}
	d.inflight += n

	packets := int64(1)
	if n > 0 {
		packets = (n + int64(cfg.TCPMTU) - 1) / int64(cfg.TCPMTU)
	}
	// Sender-side software: socket call, segmentation, copy/checksum.
	p.Work(cfg.TCPPerMessage + simtime.Time(packets)*cfg.TCPPerPacket +
		params.TransferTime(n, cfg.TCPCopyBandwidth))

	// Wire: packets ride the shared fabric back to back.
	src, dst := c.local, c.RemoteNode()
	cursor := p.Now()
	var last simtime.Time
	remaining := n
	for i := int64(0); i < packets; i++ {
		sz := int64(cfg.TCPMTU)
		if sz > remaining {
			sz = remaining
		}
		remaining -= sz
		arr, ok := c.st.net.fab.ReservePath(cursor, src, dst, sz+66) // headers
		if !ok {
			return ErrUnreachable
		}
		last = arr
	}
	msg := append([]byte(nil), data...)
	c.st.net.env.At(last, func(e *simtime.Env) {
		d.queue = append(d.queue, msg)
		d.inflight -= n
		d.arrive.Broadcast(e)
		d.credit.Broadcast(e)
	})
	return nil
}

// Recv blocks until a message arrives and returns it, paying the
// receive-side software costs.
func (c *Conn) Recv(p *simtime.Proc) ([]byte, error) {
	cfg := c.st.net.cfg
	d := c.in()
	for len(d.queue) == 0 {
		// A closed flow still drains messages already on the wire.
		if d.closed && d.inflight == 0 {
			return nil, ErrClosed
		}
		d.arrive.Wait(p)
	}
	msg := d.queue[0]
	d.queue = d.queue[1:]
	n := int64(len(msg))
	packets := int64(1)
	if n > 0 {
		packets = (n + int64(cfg.TCPMTU) - 1) / int64(cfg.TCPMTU)
	}
	p.Work(cfg.TCPPerMessage + simtime.Time(packets)*cfg.TCPPerPacket +
		params.TransferTime(n, cfg.TCPCopyBandwidth))
	return msg, nil
}

// Close shuts down both flows; blocked peers fail with ErrClosed.
// Undelivered queued messages may still be received.
func (c *Conn) Close(e *simtime.Env) {
	for _, d := range []*direction{&c.st.ab, &c.st.ba} {
		d.closed = true
		d.arrive.Broadcast(e)
		d.credit.Broadcast(e)
	}
}
