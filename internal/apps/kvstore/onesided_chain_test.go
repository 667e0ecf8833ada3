package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"lite/internal/lite"
	"lite/internal/simtime"
)

// A stable GetDirect is two WR chains and nothing else: 2 doorbells and
// 4 READs for a hit (both buckets, then record + version word), 2
// doorbells and 3 READs for a miss (both buckets, then the fence) — and
// not one atomic anywhere, the old validating CAS included.
func TestGetDirectCostsTwoChains(t *testing.T) {
	cls, dep := testEnv(t, 3)
	dom := cls.EnableObs()
	s, err := StartOneSided(cls, dep, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cls.GoOn(2, "client", func(p *simtime.Proc) {
		k := s.NewClient(2)
		for i := 0; i < 8; i++ {
			if err := k.Put(p, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := k.GetDirect(p, "key0"); err != nil { // attach
			t.Error(err)
			return
		}
		nb := k.att[0].nb
		nic := cls.Nodes[2].NIC
		measure := func(key string, want []byte, wantErr error, wantWRs int64) {
			if b1, b2 := buckets(hashKey64(key), nb); b1 == b2 {
				return // one candidate bucket: one READ fewer, not the case under test
			}
			bells, atomics, wrs := nic.Doorbells, dom.Total("rnic.atomic.executed"), nic.OpsPosted
			v, err := k.GetDirect(p, key)
			if err != wantErr || !bytes.Equal(v, want) {
				t.Errorf("GetDirect(%q) = %q, %v", key, v, err)
			}
			if d := nic.Doorbells - bells; d != 2 {
				t.Errorf("GetDirect(%q) rang %d doorbells, want 2", key, d)
			}
			if d := nic.OpsPosted - wrs; d != wantWRs {
				t.Errorf("GetDirect(%q) posted %d WRs, want %d", key, d, wantWRs)
			}
			if d := dom.Total("rnic.atomic.executed") - atomics; d != 0 {
				t.Errorf("GetDirect(%q) executed %d atomics, want 0", key, d)
			}
		}
		for i := 0; i < 8; i++ {
			measure(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i)), nil, 4)
		}
		for i := 0; i < 4; i++ {
			measure(fmt.Sprintf("absent%d", i), nil, ErrNotFound, 3)
		}
		if k.DirectRetries != 0 || k.DirectFallbacks != 0 {
			t.Errorf("retries %d, fallbacks %d on an idle store", k.DirectRetries, k.DirectFallbacks)
		}
		if dom.Total("rnic.atomic.executed") != 0 {
			t.Errorf("%d atomics executed; the one-sided store uses none", dom.Total("rnic.atomic.executed"))
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}

// idxBuild allocates two LMRs and then writes their images; when a
// write fails both LMRs must be freed and the generation counter rolled
// back, exactly as when the second Malloc fails. The write is made to
// fail by a saboteur on the server's node that frees the fresh LMR (its
// handle number is predictable) the moment it appears.
func TestIdxBuildWriteErrorLeaksNothing(t *testing.T) {
	for _, victim := range []string{"index", "heap"} {
		cls, dep := testEnv(t, 2)
		s, err := StartOneSided(cls, dep, []int{0}, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := s.srvs[0]
		c := dep.Instance(0).KernelClient()
		var target lite.LH
		armed, built := false, false
		cls.GoOn(0, "builder", func(p *simtime.Proc) {
			probe, err := c.Malloc(p, 64, "", lite.PermRead)
			if err != nil {
				t.Error(err)
				return
			}
			_ = c.Free(p, probe)
			target = probe + 1 // the index LMR's handle; the heap's follows
			if victim == "heap" {
				target++
			}
			armed = true
			ix := srv.idx
			ix.lock(p)
			defer ix.unlock(p)
			seq := ix.seq
			recs := []liveRec{{key: "a", val: []byte("1")}, {key: "b", val: []byte("2")}}
			err = srv.idxBuild(p, c, recs, initialBuckets, initialHeap)
			built = true
			if err == nil {
				t.Errorf("%s freed under idxBuild, yet it reported success", victim)
				return
			}
			if ix.seq != seq || ix.inited {
				t.Errorf("%s: failed build left seq %d (was %d), inited %v", victim, ix.seq, seq, ix.inited)
			}
			for _, kind := range []string{"kvidx", "kvheap"} {
				name := fmt.Sprintf("%s%d-%d-g%d-%d", kind, s.id, srv.node, srv.gen, seq+1)
				if lh, err := c.Map(p, name); err == nil {
					t.Errorf("%s: failed build leaked LMR %s", victim, name)
					_ = c.Unmap(p, lh)
				}
			}
			if err := srv.idxBuild(p, c, recs, initialBuckets, initialHeap); err != nil {
				t.Errorf("%s: rebuild after the failure: %v", victim, err)
			}
		})
		cls.GoOn(0, "saboteur", func(p *simtime.Proc) {
			for !armed {
				p.Sleep(10)
			}
			for !built && c.Free(p, target) != nil {
				p.Sleep(10)
			}
		})
		if err := cls.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
