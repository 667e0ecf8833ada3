package lite

import (
	"fmt"
	"slices"
	"testing"

	"lite/internal/allocbudget"
)

// TestRingCreditModel drives ringClient and ringServer through every
// interleaving of three senders, the wire and the consumer, by
// breadth-first search over hashed states (explore): rings of 2–8
// granules, at most creditWire frames, credits and pulls on the wire,
// delivered in any order, and the consumer taking the oldest arrived
// frame at any step. A sender may also never act, so the runs of one
// and two senders are among those of three. Every reachable state must
// keep the ledger — the client's head plus what the server owes plus
// the credit on the wire is what was consumed, and no reservation takes
// tail − head past the ring size (but one frame into an empty ring,
// whose wrap padding nobody reads) — and must not strand a sender: none
// is parked while nothing is on the wire or waiting to be consumed.
func TestRingCreditModel(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	states := 0
	for granules := int64(2); granules <= 8; granules++ {
		n, err := exploreCredit(granules * ringAlign)
		if err != nil {
			t.Fatalf("ring of %d granules: %v", granules, err)
		}
		states += n
	}
	t.Logf("%d states", states)
}

const (
	creditWire   = 3  // messages in flight at most
	creditUnread = 16 // arrived frames a two-ring window can hold at most
)

const (
	msgFrame = iota
	msgCredit
	msgPull
)

// creditMsg is one message on the wire: a frame of n bytes after pad
// bytes of wrap padding, a credit of n bytes, or a pull stating n units.
type creditMsg struct {
	kind   uint8
	pad, n int16
}

// arrivedFrame is a frame waiting for the consumer: the ring space it
// truly used (its stated padding plus its length) and what the server
// charged for it, which is what the consumer owes back.
type arrivedFrame struct{ used, charged int16 }

const (
	senderReady  = iota // about to reserve a frame of any size
	senderRetry         // re-reserving its frame after a pull or a wakeup
	senderParked        // waiting for credit
)

type creditSender struct {
	state uint8
	n     int16 // frame bytes, for a retrying or parked sender
}

// creditState is the whole model: both halves of the protocol, the
// consumed count, the arrived frames, the wire and the senders. Fixed
// arrays keep a successor one copy away.
type creditState struct {
	c        ringClient
	s        ringServer
	consumed int64
	unread   [creditUnread]arrivedFrame
	wire     [creditWire + 1]creditMsg
	senders  [3]creditSender
	nUnread  int8
	nWire    int8
}

// send puts m on the wire; false if that overfills it.
func (st *creditState) send(m creditMsg) bool {
	if st.nWire > creditWire {
		return false
	}
	st.wire[st.nWire] = m
	st.nWire++
	return st.nWire <= creditWire
}

// ship sends c as head updates.
func (st *creditState) ship(c credits) bool {
	ok := true
	for c > 0 {
		ok = st.send(creditMsg{kind: msgCredit, n: int16(c.next())}) && ok
	}
	return ok
}

// attempt runs sender k's reservation of a frame of n bytes.
func (st *creditState) attempt(k int, n int64) (bool, error) {
	empty := st.c.tail == st.c.head
	r := st.c.reserve(n)
	switch {
	case r.ok:
		if r.off != (st.c.tail-n)%st.c.size || r.off+n > st.c.size {
			return false, fmt.Errorf("frame of %d at tail %d reserved at offset %d", n, st.c.tail-n, r.off)
		}
		if st.c.tail-st.c.head > st.c.size && !empty {
			return false, fmt.Errorf("window: tail %d - head %d > size %d", st.c.tail, st.c.head, st.c.size)
		}
		st.senders[k] = creditSender{state: senderReady}
		if r.wake {
			st.wakeAll()
		}
		return st.send(creditMsg{kind: msgFrame, pad: int16(r.pad), n: int16(n)}), nil
	case r.pull:
		st.senders[k] = creditSender{state: senderRetry, n: int16(n)}
		return st.send(creditMsg{kind: msgPull, n: int16(r.units)}), nil
	}
	st.senders[k] = creditSender{state: senderParked, n: int16(n)}
	return true, nil
}

func (st *creditState) wakeAll() {
	for k := range st.senders {
		if st.senders[k].state == senderParked {
			st.senders[k].state = senderRetry
		}
	}
}

// deliver hands wire message j to its receiver.
func (st *creditState) deliver(j int) (bool, error) {
	m := st.wire[j]
	st.nWire--
	st.wire[j] = st.wire[st.nWire]
	st.wire[st.nWire] = creditMsg{}
	switch m.kind {
	case msgFrame:
		if st.nUnread == creditUnread {
			return false, fmt.Errorf("more than %d frames arrived unconsumed", creditUnread)
		}
		st.unread[st.nUnread] = arrivedFrame{used: m.pad + m.n, charged: int16(st.s.arrive(int64(m.pad), int64(m.n)))}
		st.nUnread++
	case msgCredit:
		st.c.credited(int64(m.n))
		st.wakeAll()
	case msgPull:
		return st.ship(st.s.pulled(int64(m.n))), nil
	}
	return true, nil
}

// consume takes the oldest arrived frame.
func (st *creditState) consume() bool {
	f := st.unread[0]
	copy(st.unread[:], st.unread[1:st.nUnread])
	st.nUnread--
	st.unread[st.nUnread] = arrivedFrame{}
	st.consumed += int64(f.used)
	return st.ship(st.s.owe(int64(f.charged)))
}

// check returns the first law st breaks.
func (st *creditState) check() error {
	onWire := int64(0)
	for _, m := range st.wire[:st.nWire] {
		if m.kind == msgCredit {
			onWire += int64(m.n)
		}
	}
	if st.c.head+st.s.owed+onWire != st.consumed {
		return fmt.Errorf("ledger: head %d + owed %d + on the wire %d != consumed %d", st.c.head, st.s.owed, onWire, st.consumed)
	}
	if st.nWire > 0 || st.nUnread > 0 {
		return nil
	}
	for _, s := range st.senders {
		if s.state == senderParked {
			return fmt.Errorf("stranded: a sender parked, %d bytes owed, nothing in flight", st.s.owed)
		}
	}
	return nil
}

// key canonicalizes st and hashes it. Every byte count is taken
// relative to a multiple of the ring size at or below the client's
// head, which leaves each offset and padding unchanged. A pull that
// states a tail below the arrived count, and an eagerness bound the
// arrivals have passed, change nothing any more, so they are clamped
// there. Senders and wire messages are sorted: they are
// interchangeable.
func (st *creditState) key() uint64 {
	u := pullUnit(st.c.size)
	st.s.eagerTo = max(st.s.eagerTo, st.s.arrived)
	lo := st.c.head
	for j := range st.wire[:st.nWire] {
		if m := &st.wire[j]; m.kind == msgPull {
			m.n = int16(max(int64(m.n), (st.s.arrived-1)/u))
			lo = min(lo, int64(m.n)*u)
		}
	}
	base := max(lo, 0) / st.c.size * st.c.size
	st.c.tail -= base
	st.c.head -= base
	st.s.arrived -= base
	st.s.eagerTo -= base
	st.consumed -= base
	for j := range st.wire[:st.nWire] {
		if m := &st.wire[j]; m.kind == msgPull {
			m.n -= int16(base / u)
		}
	}
	// Insertion sorts: three senders, at most four messages.
	for i := 1; i < len(st.senders); i++ {
		for j := i; j > 0 && senderLess(st.senders[j], st.senders[j-1]); j-- {
			st.senders[j], st.senders[j-1] = st.senders[j-1], st.senders[j]
		}
	}
	for i := 1; i < int(st.nWire); i++ {
		for j := i; j > 0 && msgLess(st.wire[j], st.wire[j-1]); j-- {
			st.wire[j], st.wire[j-1] = st.wire[j-1], st.wire[j]
		}
	}
	h := stateHash(14695981039346656037)
	asked := int64(0)
	if st.c.asked {
		asked = 1
	}
	h.add(st.c.tail, st.c.head, st.s.arrived, st.s.owed, st.s.eagerTo, st.consumed, asked, int64(st.nUnread), int64(st.nWire))
	for _, f := range st.unread[:st.nUnread] {
		h.add(int64(f.used)<<16 | int64(f.charged))
	}
	for _, m := range st.wire[:st.nWire] {
		h.add(int64(m.kind)<<32 | int64(m.pad)<<16 | int64(m.n))
	}
	for _, s := range st.senders {
		h.add(int64(s.state)<<16 | int64(s.n))
	}
	return uint64(h)
}

func senderLess(a, b creditSender) bool { return a.state < b.state || a.state == b.state && a.n < b.n }

func msgLess(a, b creditMsg) bool {
	return cmpInts(int(a.kind), int(b.kind), int(a.pad), int(b.pad), int(a.n), int(b.n)) < 0
}

// frameSizes returns the frame sizes senders draw from in a ring of
// size bytes: a granule, just over half the ring (so that two never fit
// together and one placed after a small frame wraps), and the whole
// ring (which only an empty ring takes).
func frameSizes(size int64) []int64 {
	half := (size/2/ringAlign + 1) * ringAlign
	return slices.Compact([]int64{ringAlign, min(half, size), size})
}

// exploreCredit searches every state reachable from an empty ring of
// size bytes and returns how many there are, or the first broken law
// with the steps that reach it.
func exploreCredit(size int64) (int, error) {
	start := creditState{c: newRingClient(size), s: newRingServer(size)}
	sizes := frameSizes(size)
	expand := func(cur *creditState, emit func(modelStep, *creditState, bool, error) error) error {
		for k, s := range cur.senders {
			if s.state == senderParked || k > 0 && s == cur.senders[k-1] {
				continue // parked, or an identical sender makes the same moves
			}
			for _, n := range sizes {
				if s.state != senderReady && n != int64(s.n) {
					continue // a sender keeps the frame it has
				}
				next := *cur
				ok, err := next.attempt(k, n)
				if err := emit(modelStep{verb: 0, a: int16(n)}, &next, ok, err); err != nil {
					return err
				}
			}
		}
		for j, m := range cur.wire[:cur.nWire] {
			if j > 0 && m == cur.wire[j-1] {
				continue
			}
			next := *cur
			ok, err := next.deliver(j)
			if err := emit(modelStep{verb: 1 + m.kind, a: m.pad, b: m.n}, &next, ok, err); err != nil {
				return err
			}
		}
		if cur.nUnread > 0 {
			next := *cur
			ok := next.consume()
			return emit(modelStep{verb: 4}, &next, ok, nil)
		}
		return nil
	}
	verbs := []string{"send", "deliver frame (pad, bytes)", "deliver credit", "deliver pull", "consume"}
	return explore(start, verbs, (*creditState).key, (*creditState).check, expand)
}
