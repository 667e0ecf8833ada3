package lite

import (
	"encoding/binary"
	"errors"
	"testing"

	"lite/internal/simtime"
)

// TestAtomicsLocalRemoteParity runs LT_fetch-add and LT_test-set
// against a local and a remote LMR word and requires identical
// semantics: the local fast path must leave exactly what the responder
// NIC does.
func TestAtomicsLocalRemoteParity(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.GoOn(0, "app", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for _, home := range []int{0, 1} { // local word, then remote word
			h, err := c.MallocAt(p, []int{home}, 4096, "", PermRead|PermWrite)
			if err != nil {
				t.Fatal(err)
			}
			word := func(off int64) uint64 {
				var b [8]byte
				if err := c.Read(p, h, off, b[:]); err != nil {
					t.Fatal(err)
				}
				return binary.LittleEndian.Uint64(b[:])
			}
			// Test-and-set: succeeds on zero, fails (unchanged) otherwise.
			if old, err := c.TestSet(p, h, 0, 7); err != nil || old != 0 {
				t.Fatalf("home %d: TestSet(7) old=%d err=%v", home, old, err)
			}
			if old, err := c.TestSet(p, h, 0, 9); err != nil || old != 7 {
				t.Fatalf("home %d: failed TestSet old=%d err=%v (want 7)", home, old, err)
			}
			if v := word(0); v != 7 {
				t.Fatalf("home %d: word = %d after a failed TestSet, want 7", home, v)
			}
			// Fetch-add returns the previous value and wraps mod 2^64.
			if old, err := c.FetchAdd(p, h, 8, 5); err != nil || old != 0 {
				t.Fatalf("home %d: FetchAdd(5) old=%d err=%v", home, old, err)
			}
			if old, err := c.FetchAdd(p, h, 8, ^uint64(0)); err != nil || old != 5 {
				t.Fatalf("home %d: FetchAdd(-1) old=%d err=%v", home, old, err)
			}
			if v := word(8); v != 4 {
				t.Fatalf("home %d: word = %d after +5-1, want 4", home, v)
			}
			// Misaligned offsets are rejected (words must be 8-aligned to
			// be NIC atomics; the local path enforces the same contract).
			if _, err := c.FetchAdd(p, h, 4, 1); !errors.Is(err, ErrAlign) {
				t.Fatalf("home %d: misaligned FetchAdd: err = %v, want ErrAlign", home, err)
			}
			if _, err := c.TestSet(p, h, 12, 1); !errors.Is(err, ErrAlign) {
				t.Fatalf("home %d: misaligned TestSet: err = %v, want ErrAlign", home, err)
			}
		}
	})
	run(t, cls)
}
