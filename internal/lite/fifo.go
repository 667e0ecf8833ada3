package lite

// fifo is a queue that pops by advancing a head index instead of
// re-slicing its front away, and slides its entries down when the tail
// reaches capacity, so a queue that keeps filling and draining reuses
// one backing array instead of reallocating on the first push after
// every pop (simtime's wait queue does the same).
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, v)
}

// pop removes and returns the oldest entry; f must not be empty.
func (f *fifo[T]) pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return v
}

// all returns the queued entries, oldest first.
func (f *fifo[T]) all() []T { return f.q[f.head:] }
