package lite

import (
	"math/rand"
	"slices"
	"testing"

	"lite/internal/rnic"
	"lite/internal/simtime"
)

// TestUnknownIDsFailCleanly pins what a lookup by an id that names
// nothing returns. Handles, node ids and call tokens index slices, so
// an lh never handed out or already released, a node id outside the
// cluster and an answer for a token nobody waits on must each read as
// a missing entry (ErrBadHandle, not dead, no pending call), never
// panic.
func TestUnknownIDsFailCleanly(t *testing.T) {
	cls, dep := testDep(t, 2)
	inst := dep.Instance(0)
	for _, n := range []int{-1, 2, 1 << 20} {
		if inst.NodeDead(n) {
			t.Errorf("NodeDead(%d) = true for a node outside the cluster", n)
		}
	}
	cls.GoOn(0, "prober", func(p *simtime.Proc) {
		c := inst.KernelClient()
		freed, err := c.Malloc(p, 4096, "", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Free(p, freed); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		for _, h := range []LH{0, freed, freed + 1, 1 << 40} {
			if _, err := inst.lookupLH(h, 0); err != ErrBadHandle {
				t.Errorf("lookupLH(%d) = %v, want ErrBadHandle", h, err)
			}
			if err := c.Read(p, h, 0, buf); err != ErrBadHandle {
				t.Errorf("Read(%d) = %v, want ErrBadHandle", h, err)
			}
			if err := c.Unmap(p, h); err != ErrBadHandle {
				t.Errorf("Unmap(%d) = %v, want ErrBadHandle", h, err)
			}
		}

		// An answer for a token nobody waits on is dropped; the calls
		// that are pending stay so.
		token, pc := pendAnswer(t, inst, nil)
		for _, tok := range []uint32{0, token + 1, token + pendingMinSlots, tokenMask} {
			inst.handleAnswer(tagRPCRep, rnic.CQE{HasImm: true, Imm: encodeAnswerImm(tagRPCRep, tok)})
		}
		if pc.done || inst.pending.get(token) != pc {
			t.Error("an answer for another token touched a pending call")
		}
		inst.handleAnswer(tagRPCRep, rnic.CQE{HasImm: true, Imm: encodeAnswerImm(tagRPCRep, token)})
		if !pc.done || inst.pending.get(token) != nil {
			t.Error("the call's own answer did not complete it")
		}
	})
	run(t, cls)
}

// TestPendingTableMatchesMap drives the token-indexed pending table and
// a map with the same seeded stream of new calls, answers (some for
// tokens long gone) and long-abandoned calls that pin their slots. The
// table must hold exactly what the map holds, and minting must skip
// only tokens whose slot is taken.
func TestPendingTableMatchesMap(t *testing.T) {
	_, dep := testDep(t, 1)
	inst := dep.Instance(0)
	model := make(map[uint32]*pendingCall)
	rng := rand.New(rand.NewSource(5))
	var live []uint32
	skips := 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			before := inst.nextToken
			tok := inst.token()
			skips += int(tok - before - 1)
			for skipped := before + 1; skipped < tok; skipped++ {
				if inst.pending.slot(skipped).pc == nil {
					t.Fatalf("step %d: token %d skipped with its slot free", step, skipped)
				}
			}
			if _, dup := model[tok]; dup {
				t.Fatalf("step %d: token %d minted twice", step, tok)
			}
			pc := &pendingCall{}
			inst.pending.put(tok, pc)
			model[tok] = pc
			live = append(live, tok)
		case r < 9:
			// Answer a live call, most often a recent one; a few stay
			// pending for thousands of tokens.
			k := len(live) - 1 - rng.Intn(min(len(live), 8))
			tok := live[k]
			live = append(live[:k], live[k+1:]...)
			inst.pending.del(tok)
			delete(model, tok)
		default:
			tok := inst.nextToken - uint32(rng.Intn(4096))
			inst.pending.del(tok)
			if _, ok := model[tok]; ok {
				delete(model, tok)
				for k, l := range live {
					if l == tok {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
			}
		}
		if inst.pending.live != len(model) {
			t.Fatalf("step %d: %d live, model holds %d", step, inst.pending.live, len(model))
		}
	}
	if skips == 0 {
		t.Error("no token was ever skipped: the stream never pinned a slot")
	}
	got := inst.pending.sorted()
	if len(got) != len(model) || !slices.IsSorted(got) {
		t.Fatalf("sorted() lists %d tokens, model holds %d", len(got), len(model))
	}
	for _, tok := range got {
		if pc, ok := model[tok]; !ok || inst.pending.get(tok) != pc {
			t.Fatalf("token %d: table and model disagree", tok)
		}
	}
}

// TestDedupWindowMatchesMapModel drives a server ring's dedup window
// and the map-plus-FIFO model it replaced with the same seeded stream of
// distinct, mostly ascending sequence numbers and lookups, starting both
// from an adopted window larger than the cap (a migration can ship one).
// Every lookup must agree, and the window must keep the model's FIFO
// order.
func TestDedupWindowMatchesMapModel(t *testing.T) {
	for _, adopted := range []int{0, dedupWindow / 2, 2 * dedupWindow} {
		rng := rand.New(rand.NewSource(int64(adopted) + 1))
		var ring srvRing
		model := make(map[uint64]*dedupEntry)
		var fifo []uint64
		next := uint64(1000)
		for k := 0; k < adopted; k++ {
			e := &dedupEntry{seq: next - uint64(rng.Intn(900)), done: true}
			if ring.dedup.find(e.seq) != nil {
				continue
			}
			ring.dedup.add(e)
			model[e.seq] = e
			fifo = append(fifo, e.seq)
		}
		for step := 0; step < 5000; step++ {
			if rng.Intn(3) == 0 {
				seq := next - uint64(rng.Intn(200))
				if got, want := ring.dedupLookup(seq), model[seq]; got != want {
					t.Fatalf("adopted %d step %d: lookup(%d) = %v, want %v", adopted, step, seq, got, want)
				}
				continue
			}
			// Sequence numbers arrive out of order by a few places, as
			// concurrent callers' first attempts do.
			next += uint64(1 + rng.Intn(3))
			seq := next - uint64(rng.Intn(3))
			if model[seq] != nil {
				continue
			}
			e := &dedupEntry{seq: seq}
			ring.dedupInsert(e)
			model[seq] = e
			fifo = append(fifo, seq)
			if len(fifo) > dedupWindow {
				delete(model, fifo[0])
				fifo = fifo[1:]
			}
			if got := logSeqs(&ring.dedup); !slices.Equal(got, fifo) {
				t.Fatalf("adopted %d step %d: window %v, want %v", adopted, step, got, fifo)
			}
		}
	}
}
