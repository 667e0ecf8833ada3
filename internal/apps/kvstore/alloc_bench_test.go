package kvstore

import (
	"fmt"
	"testing"

	"lite/internal/allocbudget"
	"lite/internal/simtime"
)

// getDirect runs client on node 1 of a one-sided store served from
// node 0 and holding 64 keys of 128 B; get performs one GetDirect,
// cycling over the keys.
func getDirect(tb testing.TB, client func(p *simtime.Proc, get func())) {
	cls, dep := testEnv(tb, 2)
	s, err := StartOneSided(cls, dep, []int{0}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		const keys = 64
		names := make([]string, keys)
		for i := range names {
			names[i] = fmt.Sprintf("key-%d", i)
			if err := k.Put(p, names[i], make([]byte, 128)); err != nil {
				tb.Fatal(err)
			}
		}
		n := 0
		client(p, func() {
			if _, err := k.GetDirect(p, names[n%keys]); err != nil {
				tb.Fatal(err)
			}
			n++
		})
	})
	if err := cls.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkGetDirect measures the host-side (wall-clock) cost and
// allocations of one stable one-sided GET — two ReadV chains through
// lite, rnic and the fabric. Run with:
//
//	go test -bench=GetDirect -benchmem ./internal/apps/kvstore/
func BenchmarkGetDirect(b *testing.B) {
	getDirect(b, func(_ *simtime.Proc, get func()) {
		// Warm the attachment and the NIC caches before counting.
		get()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
	})
}

// getDirectAllocs bounds the steady-state allocations of one GetDirect
// to the record read, which backs the value returned. The bucket pair
// and the version word come from the Client's free list (tryDirect),
// lite splits each segment on the stack, and the NIC's reads allocate
// nothing.
const getDirectAllocs = 1

func TestGetDirectAllocBudget(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	getDirect(t, func(_ *simtime.Proc, get func()) {
		// Warm the caches, the pools and one lap of the event wheel.
		for i := 0; i < 2000; i++ {
			get()
		}
		if allocs := testing.AllocsPerRun(2000, get); allocs > getDirectAllocs {
			t.Errorf("%.0f allocations per GetDirect, want at most %d", allocs, getDirectAllocs)
		}
	})
}
