package rnic

import "math/bits"

// Payload lifetime. A payload buffer holds the bytes of one operation
// while they are in flight: a write's or UD send's snapshot of the
// gather buffer, taken at post time (also for a request held behind a
// multi-packet message, packet.go), and a read's snapshot of the remote
// bytes, taken when the responder's DMA reads them. Buffers come from
// the registry's bufPool and go back at the instant they are consumed —
// after the remote commit or the write-imm's delivery, after the local
// scatter of a read, when a datagram lands or an RNR retry gives up — or at
// the instant a failure path gives the operation up. A zero-length
// operation takes none. Pooled buffers are not zeroed: a path fills the
// whole buffer before anything reads it, and a failed snapshot clears
// it, so the bytes an operation delivers never depend on what an
// earlier one left behind.

const (
	minBufShift = 6  // smallest pooled buffer: 64 B
	maxBufShift = 20 // largest pooled buffer: 1 MiB; bigger ones are not kept
)

// bufPool recycles payload buffers in power-of-two size classes.
type bufPool struct {
	free       [maxBufShift + 1][][]byte
	gets, puts int // buffers handed out and returned, for tests
}

// bufClass returns the size class of an n-byte buffer (n > 0), or -1
// when n is too large to pool.
func bufClass(n int64) int {
	c := bits.Len64(uint64(n - 1))
	if c < minBufShift {
		c = minBufShift
	}
	if c > maxBufShift {
		return -1
	}
	return c
}

// get returns a buffer of length n > 0 with unspecified contents.
func (b *bufPool) get(n int64) []byte {
	b.gets++
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if k := len(b.free[c]); k > 0 {
		buf := b.free[c][k-1]
		b.free[c][k-1] = nil
		b.free[c] = b.free[c][:k-1]
		return buf[:n]
	}
	return make([]byte, n, 1<<c)
}

// put returns a buffer obtained from get. A nil buffer (a zero-length
// operation's) is ignored.
func (b *bufPool) put(buf []byte) {
	if buf == nil {
		return
	}
	b.puts++
	if c := bufClass(int64(cap(buf))); c >= 0 && cap(buf) == 1<<c {
		b.free[c] = append(b.free[c], buf[:0])
	}
}

// freeList recycles one NIC's event records of one type.
type freeList[T any] struct {
	free []*T
}

func (l *freeList[T]) get() *T {
	if k := len(l.free); k > 0 {
		r := l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		return r
	}
	return new(T)
}

// put zeroes r, dropping the references it held, and keeps it.
func (l *freeList[T]) put(r *T) {
	var zero T
	*r = zero
	l.free = append(l.free, r)
}
