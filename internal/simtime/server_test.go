package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestReserveGapFilling(t *testing.T) {
	var s Server
	// A far-future reservation must not delay an earlier arrival.
	late := s.Reserve(100*time.Microsecond, 10*time.Microsecond)
	if late != 110*time.Microsecond {
		t.Fatalf("late = %v", late)
	}
	early := s.Reserve(0, 5*time.Microsecond)
	if early != 5*time.Microsecond {
		t.Fatalf("early = %v, want 5us (idle gap before the future block)", early)
	}
	// A request that does not fit the remaining gap queues after the block.
	big := s.Reserve(0, 97*time.Microsecond)
	if big != 110*time.Microsecond+97*time.Microsecond {
		t.Fatalf("big = %v, want to queue behind the future block", big)
	}
}

func TestReserveExactGapFit(t *testing.T) {
	var s Server
	s.Reserve(0, 10*time.Microsecond)                   // [0, 10)
	s.Reserve(20*time.Microsecond, 10*time.Microsecond) // [20, 30)
	mid := s.Reserve(10*time.Microsecond, 10*time.Microsecond)
	if mid != 20*time.Microsecond {
		t.Fatalf("mid = %v, want exact fit in [10, 20)", mid)
	}
	next := s.Reserve(0, time.Microsecond)
	if next != 31*time.Microsecond {
		t.Fatalf("next = %v, want 31us (everything before is merged busy)", next)
	}
}

func TestReserveZeroDuration(t *testing.T) {
	var s Server
	s.Reserve(0, 10*time.Microsecond)
	if got := s.Reserve(5*time.Microsecond, 0); got != 10*time.Microsecond {
		t.Fatalf("zero-length completion = %v, want next idle instant", got)
	}
	if got := s.Reserve(50*time.Microsecond, 0); got != 50*time.Microsecond {
		t.Fatalf("zero-length at idle = %v", got)
	}
}

func TestBusyTotalAccumulates(t *testing.T) {
	var s Server
	s.Reserve(0, 3*time.Microsecond)
	s.Reserve(100, 7*time.Microsecond)
	if s.BusyTotal() != 10*time.Microsecond {
		t.Fatalf("busy = %v", s.BusyTotal())
	}
}

// Property: reservations never overlap and each starts at or after its
// arrival time.
func TestQuickReservationsNeverOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Server
		type iv struct{ start, end Time }
		var placed []iv
		for i := 0; i < int(n%64)+8; i++ {
			at := Time(rng.Intn(2000)) * time.Nanosecond
			d := Time(rng.Intn(500)+1) * time.Nanosecond
			end := s.Reserve(at, d)
			start := end - d
			if start < at {
				t.Logf("start %v before arrival %v", start, at)
				return false
			}
			for _, p := range placed {
				if start < p.end && p.start < end {
					t.Logf("overlap [%v,%v) vs [%v,%v)", start, end, p.start, p.end)
					return false
				}
			}
			placed = append(placed, iv{start, end})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the facility is work conserving — with all arrivals at
// time zero, total makespan equals total service time.
func TestQuickWorkConserving(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		var s Server
		var total, max Time
		for _, d := range ds {
			dur := Time(d%1000+1) * time.Nanosecond
			total += dur
			if end := s.Reserve(0, dur); end > max {
				max = end
			}
		}
		return max == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalListBounded(t *testing.T) {
	var s Server
	// Fragment heavily: every other microsecond reserved far apart.
	for i := 0; i < 5000; i++ {
		s.Reserve(Time(2*i)*time.Microsecond, 100*time.Nanosecond)
	}
	if len(s.busy) > maxIntervals {
		t.Fatalf("interval list grew to %d (> %d)", len(s.busy), maxIntervals)
	}
	// Still functional afterwards.
	end := s.Reserve(0, time.Microsecond)
	if end <= 0 {
		t.Fatal("reserve after coalescing failed")
	}
}

func TestMultiServerUsesIdleServer(t *testing.T) {
	m := NewMultiServer(2)
	a := m.Reserve(0, 10*time.Microsecond)
	b := m.Reserve(0, 10*time.Microsecond)
	if a != 10*time.Microsecond || b != 10*time.Microsecond {
		t.Fatalf("a=%v b=%v, want both to run in parallel", a, b)
	}
	c := m.Reserve(0, 10*time.Microsecond)
	if c != 20*time.Microsecond {
		t.Fatalf("c = %v, want queued", c)
	}
}

// A server on a clock retires the intervals that ended at or before
// now. Under the contract that every reservation arrives at or after
// now, it must complete every request at exactly the instant a server
// keeping its whole history does, while its live list stays bounded by
// the reservations still ahead of the clock.
func TestClockedServerMatchesFullHistory(t *testing.T) {
	for seed := 1; seed <= 8; seed++ {
		rng := calqRand(seed * 2654435761)
		e := NewEnv()
		var clocked, full Server
		clocked.SetClock(e)
		var ahead []Time // completion instants of every reservation, pruned to > now
		var last Time
		maxLive := 0
		for step := 0; step < 30000; step++ {
			switch rng.next() % 8 {
			case 0: // the clock moves on a little
				e.now += Time(rng.next() % 400)
			case 1: // the clock lands exactly on a completion instant
				if last > e.now {
					e.now = last
				}
			}
			at := e.now
			switch rng.next() % 4 {
			case 1: // near future: fills gaps between booked intervals
				at += Time(rng.next() % 600)
			case 2: // far future: fragments the list ahead of the clock
				at += Time(2000 + rng.next()%20000)
			}
			d := Time(rng.next() % 120) // zero-length requests included
			got, want := clocked.Reserve(at, d), full.Reserve(at, d)
			if got != want {
				t.Fatalf("seed %d step %d: Reserve(%v, %v) at now %v = %v with a clock, %v without", seed, step, at, d, e.now, got, want)
			}
			last = got
			ahead = append(ahead, got)
			kept := ahead[:0]
			for _, end := range ahead {
				if end > e.now {
					kept = append(kept, end)
				}
			}
			ahead = kept
			live := len(clocked.busy) - clocked.head
			if live > len(ahead)+1 {
				t.Fatalf("seed %d step %d: %d live intervals for %d reservations ahead of now", seed, step, live, len(ahead))
			}
			maxLive = max(maxLive, live)
		}
		if clocked.FreeAt() != full.FreeAt() {
			t.Fatalf("seed %d: FreeAt %v with a clock, %v without", seed, clocked.FreeAt(), full.FreeAt())
		}
		if cap(clocked.busy) > 4*maxLive+8 {
			t.Errorf("seed %d: backing array of %d intervals for at most %d live", seed, cap(clocked.busy), maxLive)
		}
	}
}

func TestClockedServerRejectsThePast(t *testing.T) {
	e := NewEnv()
	var s Server
	s.SetClock(e)
	e.now = 10 * time.Microsecond
	defer func() {
		if recover() == nil {
			t.Fatal("a reservation before now was accepted")
		}
	}()
	s.Reserve(5*time.Microsecond, time.Microsecond)
}
