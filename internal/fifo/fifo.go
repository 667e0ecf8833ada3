// Package fifo is a first-in first-out queue that reuses its backing
// array, for the queues the simulator fills and drains millions of
// times in a run (completion queues, RPC call queues, a QP's held
// messages).
package fifo

// Queue pops by advancing a head index instead of re-slicing its front
// away, and slides its entries down when the tail reaches capacity, so
// a queue that keeps filling and draining reuses one backing array
// instead of reallocating on the first push after every pop. A pop
// zeroes its slot, dropping the references the entry held. The zero
// Queue is empty and ready to use.
type Queue[T any] struct {
	q    []T
	head int
}

// Len returns the number of queued entries.
func (f *Queue[T]) Len() int { return len(f.q) - f.head }

// Push appends v.
func (f *Queue[T]) Push(v T) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, v)
}

// Pop removes and returns the oldest entry, with ok false when the
// queue is empty.
func (f *Queue[T]) Pop() (v T, ok bool) {
	if f.head == len(f.q) {
		return v, false
	}
	v = f.q[f.head]
	var zero T
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return v, true
}

// All returns the queued entries, oldest first. The slice aliases the
// queue: it is valid until the next Push or Pop.
func (f *Queue[T]) All() []T { return f.q[f.head:] }
