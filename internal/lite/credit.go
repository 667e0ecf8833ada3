package lite

// Ring credit (§5.1, Fig 9 step f): a client writes frames into its
// binding's ring with write-imm, at most a ring ahead of the credit the
// server returns. The server returns it lazily, once a quarter ring is
// owed. A sender that finds the ring full pulls once per blocked
// episode; the server then ships what it owes, and every credit at once
// (eager) until a frame the client reserved after the pull arrives.
//
// ringClient and ringServer, the two halves, are the only writers of
// the protocol's state and do no I/O: the binding and srvRing that hold
// them post and wake. TestRingCreditModel checks every interleaving.

// maxImmDelta is the largest head-update credit one IMM can carry.
// Deltas include wrap padding and can approach twice the ring size, so
// oversized credits are split across multiple updates.
const maxImmDelta = int64(0x7fffff) * ringAlign

// creditShare is the fraction of a ring the server may hold back as
// unshipped credit, so a client always sees at least three quarters of
// the truly free ring.
const creditShare = 4

// pullUnit is the granule in which a credit pull states the sender's
// tail: 8 bytes up to a 16 MB ring, coarser above, so that the IMM's 23
// value bits always span four rings — more than the tail can be ahead
// of or behind the server's arrived count when the pull lands.
func pullUnit(ringSize int64) int64 { return max(ringAlign, ringSize>>21) }

// ringClient is a binding's half of the credit protocol.
type ringClient struct {
	size int64
	tail int64 // monotonic bytes written (incl. wrap padding)
	head int64 // monotonic bytes the server reported consumed
	// asked marks the pull of the current blocked episode as posted: the
	// first sender that finds the ring full pulls, and the next frame
	// reserved ends the episode, so an episode costs exactly one pull
	// however many senders are parked in it.
	asked bool
}

func newRingClient(size int64) ringClient { return ringClient{size: size} }

// reservation is the outcome of ringClient.reserve: ok, the frame goes
// at ring offset off after pad bytes of wrap padding, and wake, it ended
// a pull episode, so parked senders must re-check; or pull, the ring is
// full and this sender opens the episode with a pull stating units, its
// tail in pullUnit granules mod 2^23.
type reservation struct {
	ok, wake, pull  bool
	off, pad, units int64
}

// reserve claims need aligned bytes for a frame. An empty ring (every
// byte posted has been credited back) takes any frame that fits the
// ring at all: the wrap padding is then bookkeeping over bytes nobody
// will read, and holding it against the window would block a frame
// longer than both the run before and the run after the tail forever.
func (c *ringClient) reserve(need int64) (r reservation) {
	var pad int64
	if off := c.tail % c.size; off+need > c.size {
		pad = c.size - off
	}
	if c.tail+pad+need-c.head <= c.size || (c.tail == c.head && need <= c.size) {
		c.tail += pad
		r = reservation{ok: true, wake: c.asked, off: c.tail % c.size, pad: pad}
		c.tail += need
		c.asked = false
		return r
	}
	if !c.asked {
		c.asked = true
		u := pullUnit(c.size)
		r.pull, r.units = true, (c.tail+u-1)/u%(1<<23)
	}
	return r
}

// credited applies a head update of n bytes.
func (c *ringClient) credited(n int64) { c.head += n }

// reset restarts the client half from zero (rebind, restart).
func (c *ringClient) reset() { c.tail, c.head, c.asked = 0, 0, false }

// ringServer is a server ring's half of the credit protocol.
type ringServer struct {
	size    int64
	arrived int64 // monotonic bytes arrived (incl. wrap padding)
	// owed is credit not yet shipped. Every credit ships at once while
	// arrived < eagerTo: a blocked client pulled with its tail at
	// eagerTo-1, and nothing it reserved after that has arrived yet. A
	// byte count, not a flag, because the pull and the frames around it
	// overtake one another on the wire.
	owed, eagerTo int64
}

func newRingServer(size int64) ringServer { return ringServer{size: size} }

// credits is ring credit ready to ship.
type credits int64

// next splits off the next head update: at most maxImmDelta bytes.
func (c *credits) next() int64 {
	d := min(int64(*c), maxImmDelta)
	*c -= credits(d)
	return d
}

// arrive accounts an arrived frame of n bytes that states pad bytes of
// wrap padding before it and returns the ring space it used, which its
// consumer owes back. Frames of one binding do not arrive in ring
// order (a small frame reserved later overtakes a large one), so the
// padding must be the sender's: inferring it from the previous
// arrival's end charges an overtaken frame almost a whole ring of
// phantom padding, and that credit lets the client overwrite frames
// nobody has read.
func (s *ringServer) arrive(pad, n int64) int64 {
	d := pad + (n+ringAlign-1)&^(ringAlign-1)
	s.arrived += d
	return d
}

// owe adds n consumed bytes to the credit held back and returns what
// ships now: all of it once it reaches size/creditShare or while the
// client is blocked behind its pull, else nothing.
func (s *ringServer) owe(n int64) credits {
	s.owed += n
	if s.eager() || s.owed >= s.size/creditShare {
		return s.ship()
	}
	return 0
}

// pulled records a credit pull stating the sender's tail as units (mod
// 2^23) of pullUnit — the tail is the value congruent to it nearest the
// arrived count — and returns the credit that ships for it: all owed.
func (s *ringServer) pulled(units int64) credits {
	u := pullUnit(s.size)
	span := u << 23
	d := ((units*u-s.arrived)%span + span) % span
	if d >= span/2 {
		d -= span
	}
	s.eagerTo = max(s.eagerTo, s.arrived+d+1)
	return s.ship()
}

func (s *ringServer) ship() credits {
	c := credits(s.owed)
	s.owed = 0
	return c
}

// eager reports whether the client is, as far as the server can tell,
// still blocked behind its last pull.
func (s *ringServer) eager() bool { return s.arrived < s.eagerTo }

// reset restarts the server half from zero, matching a client that
// restarted its tail. Credit owed for frames of the old epoch is void:
// the client's fresh head already treats them as free.
func (s *ringServer) reset() { s.arrived, s.owed, s.eagerTo = 0, 0, 0 }
