package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"lite/internal/simtime"
)

// TestGetDirectBasics covers hit, miss, overwrite, delete and the
// empty-value edge through the client-traversed path.
func TestGetDirectBasics(t *testing.T) {
	cls, dep := testEnv(t, 3)
	s, err := StartOneSided(cls, dep, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(2, "client", func(p *simtime.Proc) {
		k := s.NewClient(2)
		if _, err := k.GetDirect(p, "missing"); err != ErrNotFound {
			t.Fatalf("direct get missing err = %v", err)
		}
		if err := k.Put(p, "a", []byte("value-a")); err != nil {
			t.Fatal(err)
		}
		v, err := k.GetDirect(p, "a")
		if err != nil || string(v) != "value-a" {
			t.Fatalf("direct get = %q, %v", v, err)
		}
		// Overwrite: the new record must be visible immediately.
		if err := k.Put(p, "a", []byte("value-a2")); err != nil {
			t.Fatal(err)
		}
		if v, err = k.GetDirect(p, "a"); err != nil || string(v) != "value-a2" {
			t.Fatalf("direct get after overwrite = %q, %v", v, err)
		}
		// RPC-path get agrees.
		if v, err = k.GetRPC(p, "a"); err != nil || string(v) != "value-a2" {
			t.Fatalf("rpc get = %q, %v", v, err)
		}
		if err := k.Delete(p, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := k.GetDirect(p, "a"); err != ErrNotFound {
			t.Fatalf("direct get after delete err = %v", err)
		}
		// Empty value round-trips.
		if err := k.Put(p, "empty", nil); err != nil {
			t.Fatal(err)
		}
		if v, err = k.GetDirect(p, "empty"); err != nil || len(v) != 0 {
			t.Fatalf("direct get empty = %q, %v", v, err)
		}
		if k.DirectGets == 0 {
			t.Error("no GETs were resolved one-sided")
		}
		if k.DirectFallbacks != 0 {
			t.Errorf("DirectFallbacks = %d on an uncontended store", k.DirectFallbacks)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDirectZeroServerCPU is the tentpole gate: once attached,
// stable GETs touch neither the server's RPC path nor its CPU — the
// metadata-op counter and the cluster-wide lite.rpc.calls counter stay
// flat while one-sided GETs flow.
func TestGetDirectZeroServerCPU(t *testing.T) {
	cls, dep := testEnv(t, 3)
	obs := cls.EnableObs()
	s, err := StartOneSided(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	cls.GoOn(2, "client", func(p *simtime.Proc) {
		k := s.NewClient(2)
		for i := 0; i < 8; i++ {
			if err := k.Put(p, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the attachment (one RPC, amortized forever after).
		if _, err := k.GetDirect(p, "key0"); err != nil {
			t.Fatal(err)
		}
		served0 := s.ServedOps(0)
		rpc0 := obs.Total("lite.rpc.served")
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%d", i%8)
			v, err := k.GetDirect(p, key)
			if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("val%d", i%8))) {
				t.Fatalf("direct get %q = %q, %v", key, v, err)
			}
		}
		if d := s.ServedOps(0) - served0; d != 0 {
			t.Errorf("server handled %d metadata ops during one-sided GETs, want 0", d)
		}
		if d := obs.Total("lite.rpc.served") - rpc0; d != 0 {
			t.Errorf("lite.rpc.served grew by %d during one-sided GETs, want 0", d)
		}
		if k.DirectGets < n {
			t.Errorf("DirectGets = %d, want >= %d", k.DirectGets, n)
		}
		if k.Attaches != 1 {
			t.Errorf("Attaches = %d, want 1", k.Attaches)
		}
		// Guard against the gate being vacuous: the puts and the attach
		// above did go through the server's RPC path.
		if rpc0 == 0 {
			t.Error("lite.rpc.served never moved; the zero-delta check proves nothing")
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDirectSurvivesResize loads enough keys to force bucket and
// heap resizes; attached readers must re-attach transparently and never
// observe a stale or torn value.
func TestGetDirectSurvivesResize(t *testing.T) {
	cls, dep := testEnv(t, 2)
	s, err := StartOneSided(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		// initialBuckets*slotsPerBucket = 64 slots; 300 keys forces
		// several resizes (and heap growth past initialHeap).
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("key%04d", i)
			if err := k.Put(p, key, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
			// Interleave direct reads so attachments go stale mid-stream.
			probe := fmt.Sprintf("key%04d", i/2)
			v, err := k.GetDirect(p, probe)
			if err != nil {
				t.Fatalf("direct get %q: %v", probe, err)
			}
			if want := bytes.Repeat([]byte{byte(i / 2)}, 64); !bytes.Equal(v, want) {
				t.Fatalf("direct get %q returned stale/torn value", probe)
			}
		}
		// Full sweep after the dust settles.
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("key%04d", i)
			v, err := k.GetDirect(p, key)
			if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 64)) {
				t.Fatalf("final sweep %q = %v", key, err)
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDirectTenantIsolation: tenant keys are never published to the
// kernel-public index; a tenant's GetDirect still works (via the RPC
// fallback) and a kernel probe of the raw index never sees tenant data.
func TestGetDirectTenantIsolation(t *testing.T) {
	cls, dep := testEnv(t, 3)
	s, err := StartOneSided(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(2, "tenant", func(p *simtime.Proc) {
		tk := s.NewTenantClient(2, 7)
		if err := tk.Put(p, "secret", []byte("tenant-data")); err != nil {
			t.Fatal(err)
		}
		v, err := tk.GetDirect(p, "secret")
		if err != nil || string(v) != "tenant-data" {
			t.Fatalf("tenant GetDirect = %q, %v", v, err)
		}
		if tk.DirectGets != 0 {
			t.Errorf("tenant GET went one-sided (DirectGets = %d), must use RPC", tk.DirectGets)
		}
		// The kernel-side server index must not contain the tenant key.
		srv := s.srvs[0]
		srv.idx.lock(p)
		if srv.idx.inited {
			if _, ok := srv.idx.slots["t7/secret"]; ok {
				t.Error("tenant key published in the kernel-public one-sided index")
			}
		}
		srv.idx.unlock(p)
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDirectSurvivesDrain drains the shard to another node while a
// reader keeps issuing direct GETs: every GET must return the current
// value (possibly via RPC fallback during the fence) and the one-sided
// path must resume against the new home.
func TestGetDirectSurvivesDrain(t *testing.T) {
	cls, dep := testEnv(t, 4)
	s, err := StartOneSided(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cls.GoOn(3, "migrator", func(p *simtime.Proc) {
		p.Sleep(2 * 1e6) // let the reader get going (2ms virtual)
		if err := s.DrainShard(p, 0, 1); err != nil {
			t.Errorf("drain: %v", err)
		}
		done = true
	})
	cls.GoOn(2, "reader", func(p *simtime.Proc) {
		k := s.NewClient(2)
		for i := 0; i < 20; i++ {
			if err := k.Put(p, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		for !done {
			key := fmt.Sprintf("key%d", i%20)
			v, err := k.GetDirect(p, key)
			if err != nil || string(v) != fmt.Sprintf("val%d", i%20) {
				t.Fatalf("get %q during drain = %q, %v", key, v, err)
			}
			i++
			p.Sleep(50_000) // 50us between gets
		}
		// After the drain the one-sided path works against the new home.
		k2 := s.NewClient(2)
		before := k2.DirectGets
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("key%d", i)
			v, err := k2.GetDirect(p, key)
			if err != nil || string(v) != fmt.Sprintf("val%d", i) {
				t.Fatalf("get %q after drain = %q, %v", key, v, err)
			}
		}
		if k2.DirectGets-before != 20 {
			t.Errorf("one-sided path did not resume after drain: DirectGets = %d/20", k2.DirectGets-before)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDirectFallsBackWithoutIndex: GetDirect against a classic
// (non-one-sided) store must silently use the RPC path.
func TestGetDirectFallsBackWithoutIndex(t *testing.T) {
	cls, dep := testEnv(t, 2)
	s, err := Start(cls, dep, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		if err := k.Put(p, "a", []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, err := k.GetDirect(p, "a")
		if err != nil || string(v) != "v" {
			t.Fatalf("fallback get = %q, %v", v, err)
		}
		if k.DirectGets != 0 || k.DirectFallbacks != 1 {
			t.Errorf("DirectGets=%d DirectFallbacks=%d, want 0/1", k.DirectGets, k.DirectFallbacks)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGetRPCShipsLargeValues: the RPC-path GET ships the value
// base64-encoded in a JSON reply, so values past ~6 KB outgrow the
// first reply budget. The server answers with the budget it needs and
// the client asks once more, for GetRPC and for GetDirect's fallback
// alike, instead of reporting a stored value as missing.
func TestGetRPCShipsLargeValues(t *testing.T) {
	cls, dep := testEnv(t, 2)
	s, err := Start(cls, dep, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(1, "client", func(p *simtime.Proc) {
		k := s.NewClient(1)
		for _, tc := range []struct {
			size int
			rpcs int64 // metadata requests one GET costs
		}{{6000, 1}, {6200, 2}, {8192, 2}, {64 << 10, 2}} {
			key := fmt.Sprintf("v%d", tc.size)
			val := bytes.Repeat([]byte{byte(tc.size)}, tc.size)
			val[0] = 'x'
			if err := k.Put(p, key, val); err != nil {
				t.Errorf("put %d bytes: %v", tc.size, err)
				return
			}
			for _, g := range []struct {
				name string
				get  func(*simtime.Proc, string) ([]byte, error)
			}{{"GetRPC", k.GetRPC}, {"GetDirect", k.GetDirect}, {"Get", k.Get}} {
				served := s.ServedOps(0)
				v, err := g.get(p, key)
				if err != nil || !bytes.Equal(v, val) {
					t.Errorf("%s of a %d-byte value: %d bytes, %v", g.name, tc.size, len(v), err)
				}
				if n := s.ServedOps(0) - served; g.name == "GetRPC" && n != tc.rpcs {
					t.Errorf("GetRPC of a %d-byte value took %d requests, want %d", tc.size, n, tc.rpcs)
				}
			}
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
