package rnic

import "testing"

// A restock posts hundreds of identical zero-byte IMM receives; the
// receive queue stores them as one run. Against a plain FIFO of
// descriptors driven step by step with the same posts and pops, the
// run-length queue must pop the same descriptor, report the same
// RecvPosted, and fire and re-arm the low-water callback at the same
// steps.
func TestRecvQueueRunsMatchPlainFIFO(t *testing.T) {
	c := newCluster(t, 2)
	_, qb := c.rcPair(0, 1)
	mr := c.physMR(t, 1, 4096, allPerm)

	imm := PostedRecv{MR: mr}
	if err := qb.PostRecvN(imm, 512); err != nil {
		t.Fatal(err)
	}
	if runs := len(qb.rq) - qb.rqHead; runs != 1 || qb.RecvPosted() != 512 {
		t.Fatalf("512 identical posts: %d runs holding %d receives, want 1 run of 512", runs, qb.RecvPosted())
	}
	for qb.RecvPosted() > 0 {
		qb.popRecv()
	}

	// The reference: the queue as a slice of descriptors, with the
	// low-water rules of SetRecvLowWater.
	const lowWater = 8
	var model []PostedRecv
	modelFired, fires, modelFires := false, 0, 0
	modelLow := func() {
		if !modelFired && len(model) < lowWater {
			modelFired = true
			modelFires++
		}
	}
	qb.SetRecvLowWater(lowWater, func(*QP) { fires++ })
	modelLow()

	descs := []PostedRecv{imm, {MR: mr, Off: 64, Len: 64, WRID: 1}, {MR: mr, Off: 128, Len: 64, WRID: 2}}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	// Fill to 40 posted, drain to empty, repeat: every cycle crosses the
	// low-water mark both ways.
	var maxRuns int
	draining := false
	for step := 0; step < 20000; step++ {
		if len(model) >= 40 {
			draining = true
		} else if len(model) == 0 {
			draining = false
		}
		op := next(4) // 0-1 batch, 2 single post, 3 pop
		if draining {
			op = 3 // mostly pops, now and then one post
			if next(16) == 0 {
				op = 2
			}
		}
		switch {
		case op < 2: // a batch repeating one descriptor, then maybe another
			rs := make([]PostedRecv, 1+next(12))
			for k := range rs {
				rs[k] = descs[next(uint64(len(descs)))]
				if k > 0 && next(4) != 0 {
					rs[k] = rs[k-1]
				}
			}
			for _, r := range rs {
				if err := qb.PostRecv(r); err != nil {
					t.Fatal(err)
				}
			}
			model = append(model, rs...)
			if modelFired && len(model) >= lowWater {
				modelFired = false
			}
		case op < 3:
			r := descs[next(uint64(len(descs)))]
			if err := qb.PostRecv(r); err != nil {
				t.Fatal(err)
			}
			model = append(model, r)
			if modelFired && len(model) >= lowWater {
				modelFired = false
			}
		default:
			got, ok := qb.popRecv()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: pop ok = %v with %d posted in the model", step, ok, len(model))
			}
			if ok {
				if got != model[0] {
					t.Fatalf("step %d: popped %+v, want %+v (FIFO)", step, got, model[0])
				}
				model = model[1:]
				modelLow()
			}
		}
		if qb.RecvPosted() != len(model) {
			t.Fatalf("step %d: RecvPosted = %d, want %d", step, qb.RecvPosted(), len(model))
		}
		if fires != modelFires || qb.lowFired != modelFired {
			t.Fatalf("step %d: low water fired %d times (armed %v), want %d (%v)", step, fires, !qb.lowFired, modelFires, !modelFired)
		}
		maxRuns = max(maxRuns, len(qb.rq)-qb.rqHead)
	}
	if modelFires < 10 {
		t.Fatalf("low water fired only %d times; the walk does not exercise it", modelFires)
	}
	if cap(qb.rq) > 2*maxRuns+4 {
		t.Errorf("backing array of %d runs for at most %d live: consumed slots not reused", cap(qb.rq), maxRuns)
	}
}
