package simtime

// Chan is a virtual-time FIFO channel of values of type T with a
// buffer of fixed capacity. Senders never block: TrySend fails on a
// full buffer.
type Chan[T any] struct {
	cap    int
	buf    []T
	closed bool

	recvable Cond // signaled when a value arrives or the channel closes
}

// NewChan returns a channel with the given buffer capacity. It panics
// on a capacity below 1.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 1 {
		panic("simtime: Chan capacity below 1")
	}
	return &Chan[T]{cap: capacity}
}

// Close closes the channel. Receivers drain any buffered values and
// then observe ok == false. Sending on a closed channel panics.
func (c *Chan[T]) Close(p *Proc) {
	if c.closed {
		panic("simtime: close of closed Chan")
	}
	c.closed = true
	c.recvable.Broadcast(p.env)
}

// TrySend buffers v without blocking and reports success. It panics if
// the channel is closed.
func (c *Chan[T]) TrySend(p *Proc, v T) bool {
	if c.closed {
		panic("simtime: send on closed Chan")
	}
	if len(c.buf) >= c.cap {
		return false
	}
	c.buf = append(c.buf, v)
	c.recvable.Signal(p.env)
	return true
}

// Recv returns the next value. ok is false if the channel is closed
// and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if v, ok := c.TryRecv(p); ok {
			return v, true
		}
		if c.closed {
			var zero T
			return zero, false
		}
		c.recvable.Wait(p)
	}
}

// TryRecv returns the next value without blocking.
func (c *Chan[T]) TryRecv(p *Proc) (v T, ok bool) {
	if len(c.buf) == 0 {
		return v, false
	}
	v = c.buf[0]
	c.buf = c.buf[1:]
	return v, true
}
