package lite

import (
	"errors"
	"testing"
	"time"

	"lite/internal/rnic"
	"lite/internal/simtime"
)

// answerTags are the four kinds of answer a call attempt can get; they
// share one IMM encoding (encodeAnswerImm) and one client-side handler
// (handleAnswer).
var answerTags = []int{tagRPCRep, tagRPCShed, tagRPCMaybe, tagRPCMoved}

// TestAnswerImmCarriesTagAndToken: every answer IMM decodes back to its
// tag and the attempt's 28-bit token, and no token bit leaks into the
// tag.
func TestAnswerImmCarriesTagAndToken(t *testing.T) {
	for _, tag := range answerTags {
		for _, tok := range []uint32{1, 0x0abcdef1, tokenMask} {
			imm := encodeAnswerImm(tag, tok)
			if got, _, _ := decodeImm(imm); got != tag {
				t.Errorf("tag %d token %#x: decoded tag %d", tag, tok, got)
			}
			if got := imm & tokenMask; got != tok {
				t.Errorf("tag %d token %#x: decoded token %#x", tag, tok, got)
			}
		}
	}
}

// pendAnswer registers a pending call on inst as rpc does and returns
// its token; word, when non-nil, is the 8-byte payload a notice left in
// the call's response buffer.
func pendAnswer(t *testing.T, inst *Instance, word []byte) (uint32, *pendingCall) {
	t.Helper()
	pa := inst.scratchAlloc(64)
	if word != nil {
		if err := inst.node.Mem.Write(pa, word); err != nil {
			t.Fatal(err)
		}
	}
	token := inst.token()
	pc := &pendingCall{respPA: pa}
	inst.pending.put(token, pc)
	return token, pc
}

// TestHandleAnswerCompletesEveryKind: each kind of answer completes its
// pending call with the outcome it stands for, and a shed or moved
// notice that carried a word surfaces it through the rich error.
func TestHandleAnswerCompletesEveryKind(t *testing.T) {
	_, dep := testDep(t, 2)
	inst := dep.Instance(0)
	cases := []struct {
		name string
		tag  int
		word []byte
		len  int64
		want func(error) bool
	}{
		{"reply", tagRPCRep, nil, 5, func(err error) bool { return err == nil }},
		{"bare shed", tagRPCShed, nil, 0, func(err error) bool {
			var oe *OverloadError
			return err == ErrOverloaded && !errors.As(err, &oe)
		}},
		{"shed with hint", tagRPCShed, wire{}.u64(7000), 8, func(err error) bool {
			var oe *OverloadError
			return errors.As(err, &oe) && oe.RetryAfter == 7000 && errors.Is(err, ErrOverloaded)
		}},
		{"maybe executed", tagRPCMaybe, nil, 0, func(err error) bool { return err == ErrMaybeExecuted }},
		{"moved", tagRPCMoved, wire{}.u64(3), 8, func(err error) bool {
			var me *MovedError
			return errors.As(err, &me) && me.To == 3 && errors.Is(err, ErrMoved)
		}},
	}
	for _, c := range cases {
		token, pc := pendAnswer(t, inst, c.word)
		inst.handleAnswer(c.tag, rnic.CQE{HasImm: true, Imm: encodeAnswerImm(c.tag, token), Len: c.len})
		if !pc.done {
			t.Errorf("%s: pending call not completed", c.name)
		}
		if inst.pending.get(token) != nil {
			t.Errorf("%s: pending entry left behind", c.name)
		}
		if !c.want(pc.err) {
			t.Errorf("%s: err = %v", c.name, pc.err)
		}
		if c.tag == tagRPCRep && pc.respLen != c.len {
			t.Errorf("%s: respLen = %d, want %d", c.name, pc.respLen, c.len)
		}
	}
}

// TestLateAnswerOfEveryKindFreesQuarantine: a call whose waiter timed
// out keeps its response buffer quarantined until an answer lands. Any
// kind of answer ends that — a reply has landed, and a notice means no
// reply ever will — and frees the buffer exactly once.
func TestLateAnswerOfEveryKindFreesQuarantine(t *testing.T) {
	_, dep := testDep(t, 2)
	inst := dep.Instance(0)
	for _, tag := range answerTags {
		token, pc := pendAnswer(t, inst, nil)
		pc.abandoned = true
		inst.scratch.quarantine(pc.respPA, 64, token, inst.epoch)
		if inst.scratch.quarBytes != 64 {
			t.Fatalf("tag %d: %d bytes quarantined before the answer, want 64", tag, inst.scratch.quarBytes)
		}
		cqe := rnic.CQE{HasImm: true, Imm: encodeAnswerImm(tag, token)}
		inst.handleAnswer(tag, cqe)
		inst.handleAnswer(tag, cqe) // a duplicate finds no pending entry
		if inst.scratch.quarBytes != 0 {
			t.Errorf("tag %d: %d bytes still quarantined after the late answer", tag, inst.scratch.quarBytes)
		}
		if left := inst.pending.get(token) != nil; left || pc.done {
			t.Errorf("tag %d: abandoned call must be dropped, not completed (pending %v, done %v)", tag, left, pc.done)
		}
	}
}

// runShedBurst hammers a slow single-worker server under fair admission
// from four threads on each of two client nodes, by plain RPC or through
// the retry layer, and returns every call's error.
func runShedBurst(t *testing.T, retry bool) (errs []error, hintWaits int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.RPCTimeout = 400 * time.Microsecond
	opts.RetryBackoff = time.Microsecond
	opts.AdmissionHighWater = 4
	cls, dep := testDepOpts(t, 3, opts)
	cls.EnableObs()
	if err := dep.Instance(2).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
		p.Work(5 * time.Microsecond)
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		c := dep.Instance(node).KernelClient()
		for th := 0; th < 4; th++ {
			cls.GoOn(node, "burst-client", func(p *simtime.Proc) {
				for k := 0; k < 12; k++ {
					var err error
					if retry {
						_, err = c.RPCRetry(p, 2, echoFn, make([]byte, 16), 64)
					} else {
						_, err = c.RPC(p, 2, echoFn, make([]byte, 16), 64)
					}
					errs = append(errs, err)
				}
			})
		}
	}
	run(t, cls)
	checkRingsSettled(t, dep) // shed frames are credited too
	return errs, cls.Obs.Total("lite.retry.hint_waits")
}

// TestShedRetryAfterReachesCaller: a fair-admission shed ships a
// Retry-After hint, and the hint reaches the caller as an OverloadError
// — plain RPC returns it, and the retry layer stretches its backoff to
// it (lite.retry.hint_waits).
func TestShedRetryAfterReachesCaller(t *testing.T) {
	errs, _ := runShedBurst(t, false)
	hinted := 0
	for _, err := range errs {
		var oe *OverloadError
		if errors.As(err, &oe) {
			if oe.RetryAfter <= 0 {
				t.Fatalf("OverloadError with RetryAfter %v, want > 0", oe.RetryAfter)
			}
			hinted++
		}
	}
	if hinted == 0 {
		t.Fatalf("no call of %d got an OverloadError with a Retry-After hint", len(errs))
	}
	if _, waits := runShedBurst(t, true); waits == 0 {
		t.Errorf("lite.retry.hint_waits = 0: the retry layer never waited out a hint")
	}
}
