package kvstore

import (
	"bytes"
	"testing"
	"time"

	"lite/internal/simtime"
)

// TestPutKeepsInPlaceHandle pins which PUTs invalidate a client's
// cached value handle. A same-size PUT overwrites in place under the
// same LMR, so the handle survives it — the client's own or anybody
// else's — and the next Get is one one-sided read of the new value. A
// size-changing PUT frees the LMR: the handle goes and the next Get
// pays exactly one lookup. Tenant clients behave like kernel clients.
func TestPutKeepsInPlaceHandle(t *testing.T) {
	for _, ten := range []uint16{0, 5} {
		cls, dep := testEnv(t, 3)
		s, err := Start(cls, dep, []int{0}, 2)
		if err != nil {
			t.Fatal(err)
		}
		cls.GoOn(1, "client", func(p *simtime.Proc) {
			k, other := s.NewTenantClient(1, ten), s.NewTenantClient(2, ten)
			get := func(c *Client, want string, lookups int64) {
				t.Helper()
				before := c.MetaLookups
				v, err := c.Get(p, "x")
				if err != nil || string(v) != want {
					t.Errorf("tenant %d: get = %q, %v, want %q", ten, v, err, want)
				}
				if got := c.MetaLookups - before; got != lookups {
					t.Errorf("tenant %d: get of %q did %d metadata lookups, want %d", ten, want, got, lookups)
				}
			}
			put := func(c *Client, once bool, v string) {
				t.Helper()
				do := c.Put
				if once {
					do = c.PutOnce
				}
				if err := do(p, "x", []byte(v)); err != nil {
					t.Errorf("tenant %d: put %q: %v", ten, v, err)
				}
			}
			put(k, false, "v1v1")
			get(k, "v1v1", 1) // first get resolves and caches the handle
			get(other, "v1v1", 1)

			// Own same-size PUTs, through either entry point: handle kept.
			put(k, false, "v2v2")
			get(k, "v2v2", 0)
			put(k, true, "v3v3")
			get(k, "v3v3", 0)
			if k.HandlesKept != 2 || k.HandlesDropped != 0 {
				t.Errorf("tenant %d: kept %d dropped %d after two in-place puts, want 2 and 0", ten, k.HandlesKept, k.HandlesDropped)
			}
			// ...and they never invalidate another client's handle.
			get(other, "v3v3", 0)
			put(other, false, "v4v4")
			get(k, "v4v4", 0)

			// Own size-changing PUT: handle dropped, exactly one lookup.
			put(k, false, "longer-v5")
			if k.HandlesDropped != 1 {
				t.Errorf("tenant %d: dropped %d handles after a size-changing put, want 1", ten, k.HandlesDropped)
			}
			get(k, "longer-v5", 1)
			get(k, "longer-v5", 0)
			// The other client's handle was revoked by the free: its read
			// fails, it drops the handle and re-resolves once.
			get(other, "longer-v5", 1)
			if other.HandlesDropped != 1 {
				t.Errorf("tenant %d: bystander dropped %d handles, want 1", ten, other.HandlesDropped)
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetRereadsWhenVersionRunsAhead parks a lookup inside the window
// between server.put's version bump and its write landing: the reply
// names a version memory does not hold yet, and the first read through
// the freshly mapped handle may still see the previous one. That
// handle is perfectly valid — Get must read again through it, not
// drop it and pay another lookup + LT_map. The window's position is a
// property of the cost model, so the reader's start is swept across
// the whole PUT and the test demands that some offset lands inside.
func TestGetRereadsWhenVersionRunsAhead(t *testing.T) {
	const size = 256 << 10 // a wide window: the write's memcpy takes tens of us
	v1, v2 := bytes.Repeat([]byte{1}, size), bytes.Repeat([]byte{2}, size)
	hits := 0
	for off := time.Duration(0); off < 400*time.Microsecond; off += 4 * time.Microsecond {
		cls, dep := testEnv(t, 3)
		s, err := Start(cls, dep, []int{0}, 2)
		if err != nil {
			t.Fatal(err)
		}
		const t0 = 2 * time.Millisecond
		cls.GoOn(1, "writer", func(p *simtime.Proc) {
			w := s.NewClient(1)
			if err := w.Put(p, "k", v1); err != nil {
				t.Errorf("put v1: %v", err)
			}
			p.SleepUntil(simtime.Time(t0))
			if err := w.Put(p, "k", v2); err != nil {
				t.Errorf("put v2: %v", err)
			}
		})
		cls.GoOn(2, "reader", func(p *simtime.Proc) {
			r := s.NewClient(2)
			p.SleepUntil(simtime.Time(t0 + off))
			v, err := r.Get(p, "k")
			if err != nil || !(bytes.Equal(v, v1) || bytes.Equal(v, v2)) {
				t.Errorf("offset %v: get returned %d bytes, %v; want all of v1 or all of v2", off, len(v), err)
			}
			if r.MetaLookups != 1 || r.HandlesDropped != 0 {
				t.Errorf("offset %v: %d lookups, %d handles dropped for one get of a live key", off, r.MetaLookups, r.HandlesDropped)
			}
			if r.OneSidedGets > 1 {
				hits++
				if !bytes.Equal(v, v2) {
					t.Errorf("offset %v: re-read returned the value older than the version the lookup promised", off)
				}
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if hits == 0 {
		t.Fatal("no offset put the lookup between the version bump and the write landing; widen the sweep")
	}
}
