package lite

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// Ring credit is returned lazily (queueHeadUpdate): the server holds
// back up to a quarter ring and a blocked sender pulls the rest. These
// tests pin the protocol's ledger — every consumed byte is either
// shipped or owed, never both, never neither — and its liveness rule.

// ringLedger is one ring's credit account read from both ends at one
// instant: what the client posted and was told, what arrived at the
// server, what the server still owes, and what has arrived but sits
// unconsumed in the function's queue.
type ringLedger struct {
	client, server, fn         int
	tail, head                 int64
	arrived, owed, unconsumed  int64
	clientAsked, serverIsEager bool
}

func (l ringLedger) consumed() int64 { return l.arrived - l.unconsumed }

func (l ringLedger) String() string {
	return fmt.Sprintf("ring %d->%d fn %d: tail %d head %d | arrived %d unconsumed %d owed %d",
		l.client, l.server, l.fn, l.tail, l.head, l.arrived, l.unconsumed, l.owed)
}

// bindKeys returns the keys of inst's bindings in (node, fn) order.
func bindKeys(inst *Instance) []bindKey {
	var keys []bindKey
	for node, row := range inst.rings {
		for _, s := range row {
			if s.bind != nil {
				keys = append(keys, bindKey{node, s.fn})
			}
		}
	}
	return keys
}

// ringLedgers reads the account of every binding whose server ring is
// alive.
func ringLedgers(dep *Deployment) []ringLedger {
	var out []ringLedger
	for _, ci := range dep.Instances {
		for _, key := range bindKeys(ci) {
			b := ci.bindingTo(key.node, key.fn)
			si := dep.Instances[key.node]
			ring := si.ringFrom(ci.node.ID, key.fn)
			if ring == nil {
				continue
			}
			l := ringLedger{
				client: ci.node.ID, server: key.node, fn: key.fn,
				tail: b.credit.tail, head: b.credit.head, arrived: ring.credit.arrived, owed: ring.credit.owed,
				clientAsked: b.credit.asked, serverIsEager: ring.credit.eager(),
			}
			if f := si.funcs[key.fn]; f != nil {
				for _, c := range f.queue.All() {
					if !c.local && c.Src == ci.node.ID {
						l.unconsumed += c.headDelta
					}
				}
			}
			out = append(out, l)
		}
	}
	return out
}

// checkRingsSound asserts what must hold at every instant: the client
// is never told of more than was consumed, and nothing is both owed and
// shipped.
func checkRingsSound(t *testing.T, dep *Deployment) {
	t.Helper()
	for _, l := range ringLedgers(dep) {
		if l.head+l.owed > l.consumed() || l.arrived > l.tail {
			t.Errorf("credit ahead of consumption: %v", l)
		}
	}
}

// checkRingsSettled asserts conservation at quiescence — no frame and
// no head update in flight: shipped + owed == consumed, exactly.
func checkRingsSettled(t *testing.T, dep *Deployment) {
	t.Helper()
	for _, l := range ringLedgers(dep) {
		if l.head+l.owed != l.consumed() {
			t.Errorf("credit not conserved: shipped %d + owed %d != consumed %d (%v)", l.head, l.owed, l.consumed(), l)
		}
	}
}

// creditFrame builds the payload of call k from thread th: n bytes that
// name their call, so a frame overwritten in the ring before the server
// read it is caught by the handler.
func creditFrame(th, k, n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte(th*31 + k*7 + i)
	}
	if n >= 8 {
		binary.LittleEndian.PutUint32(in[0:], uint32(th))
		binary.LittleEndian.PutUint32(in[4:], uint32(k))
	}
	return in
}

func creditFrameOK(in []byte) bool {
	if len(in) < 8 {
		return true
	}
	th, k := int(binary.LittleEndian.Uint32(in[0:])), int(binary.LittleEndian.Uint32(in[4:]))
	for i := 8; i < len(in); i++ {
		if in[i] != byte(th*31+k*7+i) {
			return false
		}
	}
	return true
}

// TestRingCreditProperty drives closed-loop callers over rings from
// 256 B to 64 KB, frames from header-only up to the whole ring, one to
// eight client threads and one to three server threads, and checks:
// no call times out or fails against the healthy server, no frame is
// overwritten before it is read, the client's head never runs ahead of
// what the server consumed, pulls are bounded by frames (an episode
// ends with a frame), and at quiescence shipped + owed == consumed on
// every ring including the control ring that negotiated the binding.
func TestRingCreditProperty(t *testing.T) {
	var blockedRuns int
	for seed := int64(1); seed <= 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := int64(256) << rng.Intn(9)
		threads := 1 + rng.Intn(8)
		workers := 1 + rng.Intn(3)
		name := fmt.Sprintf("seed%d/ring%d/threads%d/workers%d", seed, size, threads, workers)
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.RingBytes = size
			cls, dep := testDepOpts(t, 2, opts)
			dom := cls.EnableObs()
			corrupt := 0
			if err := dep.Instance(1).ServeRPC(echoFn, workers, func(p *simtime.Proc, c *Call) []byte {
				if !creditFrameOK(c.Input) {
					corrupt++
				}
				out := make([]byte, 8)
				binary.LittleEndian.PutUint64(out, uint64(len(c.Input)))
				return out
			}); err != nil {
				t.Fatal(err)
			}
			const calls = 24
			// Draw every thread's frame sizes up front so the schedule
			// does not depend on which thread runs first.
			sizes := make([][]int, threads)
			for th := range sizes {
				for k := 0; k < calls; k++ {
					n := rng.Intn(64)
					switch rng.Intn(4) {
					case 0: // anything up to the whole ring
						n = rng.Intn(int(size) - ringHdr + 1)
					case 1: // just past three quarters
						n = int(size)*3/4 - ringHdr + rng.Intn(int(size)/8)
					}
					sizes[th] = append(sizes[th], n)
				}
			}
			var done simtime.WaitGroup
			done.Add(threads)
			finished := false
			for th := 0; th < threads; th++ {
				th := th
				cls.GoOn(0, "credit-client", func(p *simtime.Proc) {
					defer done.Done(p.Env())
					c := dep.Instance(0).KernelClient()
					for k, n := range sizes[th] {
						out, err := c.RPC(p, 1, echoFn, creditFrame(th, k, n), 8)
						if err != nil {
							t.Errorf("thread %d call %d (%d B): %v", th, k, n, err)
							return
						}
						if got := binary.LittleEndian.Uint64(out); got != uint64(n) {
							t.Errorf("thread %d call %d: server saw %d B, sent %d", th, k, got, n)
							return
						}
					}
				})
			}
			cls.GoDaemonOn(0, "credit-monitor", func(p *simtime.Proc) {
				for !finished && !t.Failed() {
					checkRingsSound(t, dep)
					p.Sleep(250 * time.Nanosecond)
				}
			})
			cls.GoOn(0, "credit-settle", func(p *simtime.Proc) {
				done.Wait(p)
				p.Sleep(100 * time.Microsecond) // head updates in flight land
				finished = true
			})
			run(t, cls)
			if corrupt != 0 {
				t.Errorf("%d frames were overwritten before the server read them", corrupt)
			}
			checkRingsSettled(t, dep)
			frames := int64(threads*calls) + 1 // plus the binding negotiation
			pulls := dom.Total("lite.ring.credit_pull")
			if pulls > frames {
				t.Errorf("%d pulls for %d frames: more than one pull per blocked episode", pulls, frames)
			}
			if pulls > 0 {
				blockedRuns++
			}
			for _, l := range ringLedgers(dep) {
				if l.clientAsked {
					t.Errorf("pull still marked outstanding at quiescence: %v", l)
				}
			}
		})
	}
	if blockedRuns < 18 {
		t.Errorf("only %d of 36 configurations ever blocked a sender: the sweep no longer exercises the pull", blockedRuns)
	}
}

// creditBinding negotiates node 0's binding to echoFn at node 1 and
// returns it with both ends' state.
func creditBinding(t *testing.T, p *simtime.Proc, dep *Deployment) (*binding, *srvRing) {
	t.Helper()
	b, err := dep.Instance(0).getBinding(p, 1, echoFn, PriHigh)
	if err != nil {
		t.Errorf("bind: %v", err)
		return nil, nil
	}
	return b, dep.Instance(1).ringFrom(0, echoFn)
}

// TestRingCreditOnePullPerEpisode parks three senders on a full ring
// and plays the server's head updates by hand, so the episodes are known
// by construction: an episode opens when a sender parks with no pull
// outstanding and ends with the next frame reserved. Each costs exactly
// one pull, however many senders are parked in it and however many
// insufficient credits wake them.
func TestRingCreditOnePullPerEpisode(t *testing.T) {
	opts := DefaultOptions()
	opts.RingBytes = 1024
	cls, dep := testDepOpts(t, 2, opts)
	dom := cls.EnableObs()
	if err := dep.Instance(1).RegisterRPC(echoFn); err != nil {
		t.Fatal(err)
	}
	inst := dep.Instance(0)
	pulls := func() int64 { return dom.Total("lite.ring.credit_pull") }
	at := func(us int) simtime.Time { return simtime.Time(us) * time.Microsecond }
	var b *binding
	var ring *srvRing
	got := map[string]simtime.Time{}
	sender := func(name string, start int, need int64) {
		cls.GoOn(0, name, func(p *simtime.Proc) {
			p.SleepUntil(at(start))
			if _, _, err := inst.reserveRing(p, b, need, false); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got[name] = p.Now()
		})
	}
	cls.GoOn(0, "script", func(p *simtime.Proc) {
		if b, ring = creditBinding(t, p, dep); b == nil {
			return
		}
		base := pulls() // the control ring may have pulled during setup
		credit := func(n int64) {
			b.credit.credited(n)
			b.space.Broadcast(p.Env())
		}
		expect := func(when string, want int64) {
			if n := pulls() - base; n != want {
				t.Errorf("%s: %d pulls, want %d", when, n, want)
			}
		}
		if _, _, err := inst.reserveRing(p, b, 1024, false); err != nil { // fill the ring
			t.Errorf("fill: %v", err)
			return
		}
		expect("ring filled without blocking", 0)
		p.SleepUntil(at(150)) // A, B and C parked at 101, 102, 103 us
		expect("three senders parked in one episode", 1)
		if !ring.credit.eager() {
			t.Error("server ring not eager after the pull")
		}
		credit(256) // A's frame ends episode 1; B and C open episode 2
		p.SleepUntil(at(160))
		expect("A reserved, B and C parked again", 2)
		credit(128) // wakes B and C, satisfies neither
		p.SleepUntil(at(170))
		expect("an insufficient credit does not re-pull", 2)
		credit(128) // B's frame ends episode 2; C opens episode 3
		p.SleepUntil(at(180))
		expect("B reserved, C parked again", 3)
		credit(512)
		p.SleepUntil(at(190))
		expect("C reserved", 3)
		if b.credit.asked {
			t.Error("pull still marked outstanding after the last frame")
		}
	})
	sender("A", 101, 256)
	sender("B", 102, 256)
	sender("C", 103, 512)
	run(t, cls)
	for name, want := range map[string]simtime.Time{"A": at(150), "B": at(170), "C": at(180)} {
		if got[name] != want {
			t.Errorf("sender %s reserved at %v, want %v (the instant its credit arrived)", name, got[name], want)
		}
	}
}

// TestRingCreditBigFrameOnIdleBinding: an idle binding whose server
// owes less than the threshold never hears about that space on its own,
// so a frame bigger than three quarters of the ring blocks — and must
// get through on one pull, one round trip later, wherever the tail
// happens to sit (after 5 to 20 small frames it sits where the big one
// fits neither before nor after it, which only an empty ring can take).
// The price is bounded against the same sequence on a ring too large to
// block.
func TestRingCreditBigFrameOnIdleBinding(t *testing.T) {
	const bigLen = 3400 // 3440 B frame: more than 3/4 of a 4096 B ring
	// sequence runs warm small calls, idles, then times the big call.
	sequence := func(t *testing.T, ringBytes int64, warm int) (big, coldSmall simtime.Time, pulls int64) {
		opts := DefaultOptions()
		opts.RingBytes = ringBytes
		cls, dep := testDepOpts(t, 2, opts)
		dom := cls.EnableObs()
		startEchoServer(cls, dep, 1, 1)
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			c := dep.Instance(0).KernelClient()
			small := make([]byte, 100) // 144 B frames
			for k := 0; k < warm; k++ {
				if k == warm-1 {
					p.Sleep(50 * time.Microsecond) // every poller and server thread asleep
				}
				t0 := p.Now()
				if _, err := c.RPC(p, 1, echoFn, small, 128); err != nil {
					t.Errorf("small call %d: %v", k, err)
					return
				}
				coldSmall = p.Now() - t0
			}
			p.Sleep(50 * time.Microsecond) // idle: whatever was going to ship has shipped
			before := dom.Total("lite.ring.credit_pull")
			b, ring := creditBinding(t, p, dep)
			if ringBytes == 4096 && (ring.credit.owed == 0 || ring.credit.owed >= ring.size/creditShare) {
				t.Errorf("setup: server owes %d, want a sub-threshold remainder", ring.credit.owed)
			}
			in := creditFrame(0, 0, bigLen)
			t0 := p.Now()
			out, err := c.RPC(p, 1, echoFn, in, 4096)
			big = p.Now() - t0
			if err != nil {
				t.Errorf("big frame on idle binding: %v", err)
				return
			}
			if len(out) != len(in) || !creditFrameOK(out) {
				t.Error("big frame echoed wrong")
			}
			pulls = dom.Total("lite.ring.credit_pull") - before
			if b.credit.asked {
				t.Error("pull still marked outstanding after the frame went out")
			}
			p.Sleep(50 * time.Microsecond)
		})
		run(t, cls)
		checkRingsSettled(t, dep)
		return big, coldSmall, pulls
	}
	for _, warm := range []int{5, 7, 13, 20} {
		warm := warm
		t.Run(fmt.Sprintf("after%dsmall", warm), func(t *testing.T) {
			free, _, freePulls := sequence(t, 1<<20, warm)
			blocked, coldSmall, pulls := sequence(t, 4096, warm)
			if freePulls != 0 || pulls != 1 {
				t.Errorf("big frame cost %d pulls (and %d on a 1 MB ring), want exactly 1 (and 0)", pulls, freePulls)
			}
			// The pull is one small message out and one back between idle
			// nodes: it cannot cost more than a whole small call does.
			if blocked > free+coldSmall {
				t.Errorf("blocked big frame took %v, unblocked %v, an idle small call %v: the pull cost more than a round trip", blocked, free, coldSmall)
			}
		})
	}
}

// TestRingCreditSendOnly: LT_send has no reply, so nothing but the head
// update ever flows back. A sender pushing many rings' worth through a
// small ring must neither stall nor be credited per message.
func TestRingCreditSendOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.RingBytes = 4096
	cls, dep := testDepOpts(t, 2, opts)
	dom := cls.EnableObs()
	const msgs, msgLen = 400, 200 // 240 B frames: ~23 rings' worth
	received := 0
	cls.GoOn(1, "receiver", func(p *simtime.Proc) {
		c := dep.Instance(1).KernelClient()
		for received < msgs {
			m, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if len(m.Data) != msgLen || !creditFrameOK(m.Data) {
				t.Errorf("message %d corrupted", received)
			}
			received++
		}
	})
	cls.GoOn(0, "sender", func(p *simtime.Proc) {
		c := dep.Instance(0).KernelClient()
		for k := 0; k < msgs; k++ {
			if err := c.Send(p, 1, creditFrame(0, k, msgLen)); err != nil {
				t.Errorf("send %d: %v", k, err)
				return
			}
		}
		p.Sleep(100 * time.Microsecond)
	})
	run(t, cls)
	if received != msgs {
		t.Fatalf("received %d of %d messages", received, msgs)
	}
	checkRingsSettled(t, dep)
	// 400 x 240 B = 96000 B consumed; a head update ships per 1024 B owed.
	if wrs := dom.Total("lite.ring.credit_wr"); wrs < 80 || wrs > 100 {
		t.Errorf("%d head updates for %d messages, want about one per quarter ring (94)", wrs, msgs)
	}
}

// TestRingCreditGenuinelyFullRing: no server thread runs, so the ring
// fills with unconsumed frames and the next sender blocks on space that
// does not exist yet. Its pull finds nothing owed; the server must stay
// eager so the credit for the first frame consumed reaches the sender at
// once, not a quarter ring later.
func TestRingCreditGenuinelyFullRing(t *testing.T) {
	opts := DefaultOptions()
	opts.RingBytes = 1024
	opts.RPCTimeout = 2 * time.Millisecond
	cls, dep := testDepOpts(t, 2, opts)
	dom := cls.EnableObs()
	if err := dep.Instance(1).RegisterRPC(echoFn); err != nil {
		t.Fatal(err)
	}
	const callers = 6 // 200 B payloads: 240 B frames, four fill the ring
	finished := 0
	for k := 0; k < callers; k++ {
		k := k
		cls.GoOn(0, "caller", func(p *simtime.Proc) {
			p.Sleep(simtime.Time(k) * time.Microsecond)
			if _, err := dep.Instance(0).KernelClient().RPC(p, 1, echoFn, creditFrame(k, 0, 200), 256); err != nil {
				t.Errorf("caller %d: %v", k, err)
			}
			finished++
		})
	}
	// The server comes up long after callers 4 and 5 have parked.
	cls.GoOn(1, "late-server", func(p *simtime.Proc) {
		p.Sleep(200 * time.Microsecond)
		if finished != 0 {
			t.Errorf("%d calls finished with no server running", finished)
		}
		if n := dom.Total("lite.ring.credit_pull"); n != 1 {
			t.Errorf("%d pulls while two senders sat on a full ring, want 1", n)
		}
		if ring := dep.Instance(1).ringFrom(0, echoFn); !ring.credit.eager() {
			t.Error("server not eager while the client is blocked")
		}
		c := dep.Instance(1).KernelClient()
		for served := 0; served < callers; served++ {
			call, err := c.RecvRPC(p, echoFn)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if err := c.ReplyRPC(p, call, call.Input); err != nil {
				t.Errorf("reply: %v", err)
			}
		}
		p.Sleep(100 * time.Microsecond)
	})
	run(t, cls)
	if finished != callers {
		t.Fatalf("%d of %d calls finished", finished, callers)
	}
	checkRingsSettled(t, dep)
}

// TestRingCreditResetAcrossRebind: owed, eager and asked are state of
// one ring epoch. A crash and restart of the server, and a client-side
// rebind, must start the next epoch from zero on both ends — stale owed
// credit shipped into a fresh ring would let the client overwrite
// frames.
func TestRingCreditResetAcrossRebind(t *testing.T) {
	opts := heartbeatOptions()
	opts.RingBytes = 4096
	cls, dep := testDepOpts(t, 2, opts)
	if err := dep.Instance(1).ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte { return c.Input }); err != nil {
		t.Fatal(err)
	}
	call := func(p *simtime.Proc, what string, k int) bool {
		in := creditFrame(0, k, 100)
		out, err := dep.Instance(0).KernelClient().RPCRetry(p, 1, echoFn, in, 128)
		if err != nil || len(out) != len(in) {
			t.Errorf("%s: call %d: %v", what, k, err)
			return false
		}
		return true
	}
	dirty := func(what string) {
		// Leave every piece of credit state set on both rings node 0
		// sends into (control and echoFn).
		for _, l := range ringLedgers(dep) {
			if l.client != 0 {
				continue
			}
			dep.Instance(0).bindingTo(1, l.fn).credit.asked = true
			ring := dep.Instance(1).ringFrom(0, l.fn)
			ring.credit.eagerTo = ring.credit.arrived + 1
			if ring.credit.owed == 0 {
				t.Errorf("%s: ring fn %d owes nothing; the reset would be vacuous", what, l.fn)
			}
		}
	}
	clean := func(what string) {
		for _, l := range ringLedgers(dep) {
			if l.client != 0 {
				continue
			}
			if l.tail != 0 || l.head != 0 || l.arrived != 0 || l.owed != 0 || l.clientAsked || l.serverIsEager {
				t.Errorf("%s: ring state survived: %v asked=%v eager=%v", what, l, l.clientAsked, l.serverIsEager)
			}
		}
	}
	cls.GoOn(0, "driver", func(p *simtime.Proc) {
		for k := 0; k < 3; k++ {
			if !call(p, "first epoch", k) {
				return
			}
		}
		// Client-side rebind: the retry layer's escalation after two
		// timeouts. The control ring is pointer-reset in place; the
		// echoFn ring is dropped and renegotiated (the server resets it
		// in copBind).
		dirty("before rebind")
		dep.Instance(0).resetBinding(1, funcControl)
		dep.Instance(0).resetBinding(1, echoFn)
		if dep.Instance(0).bindingTo(1, echoFn) != nil {
			t.Error("echoFn binding survived resetBinding")
		}
		for _, l := range ringLedgers(dep) {
			if l.client == 0 && l.fn == funcControl && (l.tail != 0 || l.head != 0 || l.arrived != 0 || l.owed != 0 || l.clientAsked || l.serverIsEager) {
				t.Errorf("control ring state survived the rebind: %v", l)
			}
		}
		for k := 3; k < 6; k++ {
			if !call(p, "after rebind", k) {
				return
			}
		}
		p.Sleep(50 * time.Microsecond)
		checkRingsSettled(t, dep)

		// Server crash and restart: its non-control rings die, the
		// control rings are pointer-reset on both sides.
		dirty("before crash")
		cls.CrashNode(p, 1)
		p.Sleep(50 * time.Microsecond)
		cls.RestartNode(p, 1)
		clean("after server restart")
		p.Sleep(200 * time.Microsecond) // rejoin
		for k := 6; k < 9; k++ {
			if !call(p, "after restart", k) {
				return
			}
		}
		p.Sleep(50 * time.Microsecond)
		checkRingsSettled(t, dep)
	})
	run(t, cls)
}

// TestKernelCallerPollsTheCQ: an isolated LT_RPC between idle nodes,
// issued from kernel level, has its reply demultiplexed by the spinning
// caller — at arrival + pollerHandleCost, with no WakeupLatency — and
// the client's poller stays asleep: no wakeup, no busy window, no CPU.
// The same call from user level spins in user space, where it cannot
// reach the CQ, so it wakes the poller at post time: the wakeup runs
// during the round trip, the poller spins until the reply, handles it
// and runs out one busy window, to the nanosecond. The reply lands as
// early as the kernel caller's, so the two calls differ by the kernel
// entry alone.
func TestKernelCallerPollsTheCQ(t *testing.T) {
	type outcome struct {
		lat, wait, nodeCPU, pollerCPU simtime.Time
		polled, prewakes              int64
	}
	var cfgWakeup, cfgWindow, cfgEnter simtime.Time
	measure := func(user bool) (o outcome) {
		cls, dep := testDep(t, 2)
		dom := cls.EnableObs()
		dom.EnableTracing()
		cfgWakeup, cfgWindow = cls.Cfg.WakeupLatency, cls.Cfg.AdaptivePollWindow
		cfgEnter = cls.Cfg.SyscallCrossing + cls.Cfg.KernelDispatch
		startEchoServer(cls, dep, 1, 1)
		cls.GoOn(0, "client", func(p *simtime.Proc) {
			inst := dep.Instance(0)
			c := inst.KernelClient()
			if user {
				c = inst.UserClient()
			}
			in := []byte("isolated")
			// Negotiate the binding, then let every poller and server
			// thread in the cluster run out its busy window and sleep.
			if _, err := c.RPC(p, 1, echoFn, in, 64); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(200 * time.Microsecond)
			cpu0, poll0, polled0 := cls.Nodes[0].CPU.Busy(), pollerCPU(dom, 0), dom.Total("lite.poller.caller_polled")
			prewakes0 := dom.Total("lite.poller.prewakes")
			dom.ResetSpans()
			t0 := p.Now()
			if _, err := c.RPC(p, 1, echoFn, in, 64); err != nil {
				t.Error(err)
				return
			}
			o.lat = p.Now() - t0
			p.Sleep(200 * time.Microsecond) // any busy window the reply started has run out
			o.nodeCPU = cls.Nodes[0].CPU.Busy() - cpu0
			o.pollerCPU = pollerCPU(dom, 0) - poll0
			o.polled = dom.Total("lite.poller.caller_polled") - polled0
			o.prewakes = dom.Total("lite.poller.prewakes") - prewakes0
			o.wait = obs.SumByName(dom.Spans())["lite.rpc.wait"]
		})
		run(t, cls)
		return o
	}
	k, u := measure(false), measure(true)

	if k.polled != 1 || k.pollerCPU != 0 {
		t.Errorf("kernel caller: %d completions caller-polled, poller burned %v; want 1 and 0 (poller asleep throughout)", k.polled, k.pollerCPU)
	}
	if k.lat >= cfgWindow {
		t.Fatalf("kernel call took %v, outside the %v busy window: the test no longer measures a spinning caller", k.lat, cfgWindow)
	}
	// Whichever proc ran the demultiplexing, the CPU is the caller's:
	// its work plus its spin cover the call end to end, and nothing else
	// on the node was charged.
	if k.nodeCPU != k.lat {
		t.Errorf("kernel caller: node charged %v of CPU for a %v call; want exactly the caller's own time", k.nodeCPU, k.lat)
	}

	if u.polled != 0 || u.prewakes != 1 {
		t.Errorf("user caller: %d completions caller-polled, %d prewakes; want 0 (it spins in user space) and 1", u.polled, u.prewakes)
	}
	// The reply wait is the same span for both callers: the prewaked
	// poller's wakeup fits inside the round trip, so it spins until the
	// reply lands and demultiplexes it at arrival + pollerHandleCost.
	if u.wait != k.wait || u.wait <= cfgWakeup+pollerHandleCost {
		t.Errorf("user caller waited %v for its reply, kernel caller %v; want equal and longer than wakeup + handle %v", u.wait, k.wait, cfgWakeup+pollerHandleCost)
	}
	if want := u.wait + cfgWindow; u.pollerCPU != want {
		t.Errorf("user caller: poller burned %v, want wakeup + spin until the reply + handle (%v) + busy window = %v", u.pollerCPU, u.wait, want)
	}
	// The two calls differ by the kernel entry and by nothing else.
	if want := k.lat + cfgEnter; u.lat != want {
		t.Errorf("user call %v, kernel call %v: want user = kernel + entry %v = %v", u.lat, k.lat, cfgEnter, want)
	}
}

// Property: ring reservation never exceeds the window and offsets stay
// in bounds with correct wrap padding.
func TestQuickReserveRing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(1) << (8 + rng.Intn(6)) // 256B .. 8KB
		c := newRingClient(size)
		for i := 0; i < 200; i++ {
			need := (int64(rng.Intn(100)) + ringHdr + ringAlign - 1) &^ (ringAlign - 1)
			if need > size {
				continue
			}
			// Credit the ring as a consumer would, enough to never
			// block (accounting for the wrap padding the reservation
			// will insert).
			pad := int64(0)
			if off := c.tail % size; off+need > size {
				pad = size - off
			}
			if c.tail+pad+need-c.head > size {
				c.credited(c.tail + pad + need - size - c.head)
			}
			r := c.reserve(need)
			if !r.ok || r.pad != pad || r.off < 0 || r.off+need > size {
				t.Logf("reservation %+v of %d outside ring %d (want pad %d)", r, need, size, pad)
				return false
			}
			if c.tail-c.head > size {
				t.Logf("window overflow: tail %d head %d size %d", c.tail, c.head, size)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
