package simtime

import (
	"fmt"
	"sort"
)

// Server models a work-conserving FIFO service facility: each request
// occupies the facility for its service time. It is the building block
// for link bandwidth, NIC processing pipelines, DMA engines, and other
// shared serial resources.
//
// Reservations may be issued out of time order (an operation posted
// now reserves stages of its pipeline at future instants), so the
// facility keeps a list of busy intervals and places each request in
// the earliest gap at or after its arrival — a later-issued request
// arriving earlier in virtual time slots into idle capacity instead of
// queueing behind far-future reservations.
//
// Because the simulation kernel serializes processes, Server needs no
// locking.
type Server struct {
	// busy[head:] holds non-overlapping reserved intervals sorted by
	// start. busy[:head] are intervals a clocked server has retired.
	busy []interval
	head int
	env  *Env // the clock (see SetClock); nil keeps every interval
	acc  Time // total busy time, for utilization reporting
}

type interval struct {
	start, end Time
}

// maxIntervals bounds the busy list of a server without a clock; when
// exceeded, the oldest intervals are coalesced into one (they lie in
// the past of every future reservation in any realistic workload).
const maxIntervals = 1024

// SetClock ties the server to e's clock. Every reservation must then
// arrive at or after e.Now() (Reserve panics otherwise), so an interval
// that ended at or before now can never be chosen again and is
// dropped: the busy list holds only what lies ahead of the clock.
func (s *Server) SetClock(e *Env) { s.env = e }

// Reserve books a request with service time d arriving at time at and
// returns its completion instant. The request takes the earliest idle
// gap of length d starting at or after at.
func (s *Server) Reserve(at Time, d Time) Time {
	if d < 0 {
		d = 0
	}
	s.acc += d
	if s.env != nil {
		s.retire(at)
	}
	if d == 0 {
		// Zero-length requests complete at their queue position
		// without occupying the facility.
		return s.nextFree(at)
	}
	i := s.after(at)
	start := at
	for ; i < len(s.busy); i++ {
		if start+d <= s.busy[i].start {
			break // fits in the gap before interval i
		}
		if s.busy[i].end > start {
			start = s.busy[i].end
		}
	}
	s.insert(interval{start, start + d}, i)
	return start + d
}

// retire advances head past the intervals that ended at or before now,
// keeping the last one so FreeAt stays exact.
func (s *Server) retire(at Time) {
	now := s.env.now
	if at < now {
		panic(fmt.Sprintf("simtime: Server.Reserve at %v, before now (%v)", at, now))
	}
	for s.head < len(s.busy)-1 && s.busy[s.head].end <= now {
		s.head++
	}
}

// after returns the index of the first live interval ending after at.
func (s *Server) after(at Time) int {
	live := s.busy[s.head:]
	return s.head + sort.Search(len(live), func(k int) bool { return live[k].end > at })
}

// nextFree returns the earliest idle instant at or after at.
func (s *Server) nextFree(at Time) Time {
	t := at
	for i := s.after(at); i < len(s.busy); i++ {
		if t < s.busy[i].start {
			return t
		}
		t = s.busy[i].end
	}
	return t
}

// insert places iv at index i, merging with touching live neighbors.
func (s *Server) insert(iv interval, i int) {
	// Merge with predecessor if touching.
	if i > s.head && s.busy[i-1].end == iv.start {
		s.busy[i-1].end = iv.end
		// Merge with successor too if now touching.
		if i < len(s.busy) && s.busy[i-1].end == s.busy[i].start {
			s.busy[i-1].end = s.busy[i].end
			s.busy = append(s.busy[:i], s.busy[i+1:]...)
		}
		return
	}
	if i < len(s.busy) && iv.end == s.busy[i].start {
		s.busy[i].start = iv.start
		return
	}
	if len(s.busy) == cap(s.busy) && 2*s.head >= len(s.busy) {
		// At least half the backing array is retired: slide the live
		// intervals down instead of growing. Each slide frees as many
		// slots as it copies, so its cost amortises to O(1) a Reserve.
		n := copy(s.busy, s.busy[s.head:])
		s.busy = s.busy[:n]
		i -= s.head
		s.head = 0
	}
	s.busy = append(s.busy, interval{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
	if s.env == nil && len(s.busy) > maxIntervals {
		// Coalesce the oldest half into one block; those gaps are in
		// the distant past of any future arrival.
		keep := len(s.busy) / 2
		s.busy[keep-1].start = s.busy[0].start
		copy(s.busy, s.busy[keep-1:])
		s.busy = s.busy[:len(s.busy)-(keep-1)]
	}
}

// Process enqueues a request with service time d, blocks the caller
// until it completes, and returns the completion time.
func (s *Server) Process(p *Proc, d Time) Time {
	t := s.Reserve(p.Now(), d)
	p.SleepUntil(t)
	return t
}

// FreeAt returns the instant the facility next becomes idle after all
// current reservations.
func (s *Server) FreeAt() Time {
	if len(s.busy) == 0 {
		return 0
	}
	return s.busy[len(s.busy)-1].end
}

// BusyTotal returns the total busy time accumulated by the facility.
func (s *Server) BusyTotal() Time { return s.acc }

// MultiServer models a facility with k parallel servers, such as a
// multi-engine NIC or a pool of DMA channels. Each request goes to the
// server that can complete it earliest.
type MultiServer struct {
	servers []Server
}

// NewMultiServer returns a facility with k parallel servers.
func NewMultiServer(k int) *MultiServer {
	if k < 1 {
		k = 1
	}
	return &MultiServer{servers: make([]Server, k)}
}

// Process enqueues a request with service time d, blocks the caller
// until it completes, and returns the completion time.
func (m *MultiServer) Process(p *Proc, d Time) Time {
	t := m.Reserve(p.Now(), d)
	p.SleepUntil(t)
	return t
}

// Reserve books a request with service time d arriving at time at on
// the server that finishes it earliest and returns that instant.
func (m *MultiServer) Reserve(at Time, d Time) Time {
	best := 0
	var bestDone Time = -1
	for i := range m.servers {
		done := m.servers[i].nextFree(at) + d
		if bestDone < 0 || done < bestDone {
			best, bestDone = i, done
		}
	}
	return m.servers[best].Reserve(at, d)
}

// BusyTotal returns the total busy time accumulated across servers.
func (m *MultiServer) BusyTotal() Time {
	var t Time
	for i := range m.servers {
		t += m.servers[i].BusyTotal()
	}
	return t
}
