package kvstore

import (
	"fmt"
	"testing"

	"lite/internal/simtime"
)

// BenchmarkGetDirect measures the host-side (wall-clock) cost and
// allocations of one stable one-sided GET — two ReadV chains through
// lite, rnic and the fabric. Run with:
//
//	go test -bench=GetDirect -benchmem ./internal/apps/kvstore/
func BenchmarkGetDirect(b *testing.B) {
	cls, dep := testEnv(b, 2)
	s, err := StartOneSided(cls, dep, []int{0}, 1)
	if err != nil {
		b.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		const keys = 64
		for i := 0; i < keys; i++ {
			if err := k.Put(p, fmt.Sprintf("key-%d", i), make([]byte, 128)); err != nil {
				b.Error(err)
				return
			}
		}
		// Warm the attachment and the NIC caches before counting.
		if _, err := k.GetDirect(p, "key-0"); err != nil {
			b.Error(err)
			return
		}
		names := make([]string, keys)
		for i := range names {
			names[i] = fmt.Sprintf("key-%d", i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.GetDirect(p, names[i%keys]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := cls.Run(); err != nil {
		b.Fatal(err)
	}
}
