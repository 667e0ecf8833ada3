package lite

import (
	"fmt"
	"testing"

	"lite/internal/allocbudget"
)

// TestWakeRuleModel drives the production wakeRule and workerPool
// through every interleaving of one node's threads: the shared poller,
// a pool of workers, a kernel-level and a user-level caller, requests
// and replies landing in the receive CQ, and a crash at any step with
// a restart later or in the same instant. The threads are counted by
// state; the rule sees only what rpc.go passes it. A thread woken by a
// signal runs before any time passes, as a proc woken at the current
// instant does, so a step that takes time (a busy window lapsing, a
// wakeup being paid, a message landing) is explored only once every
// woken thread has run. The crashed incarnation's threads may still
// run beside the next one's, and must leave the rule as they find it.
func TestWakeRuleModel(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	for _, m := range wakeModels {
		n, err := explore(m.start(), wmVerbs, m.key, m.check, m.expand)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		t.Logf("%s: %d states", m.name, n)
	}
}

var wakeModels = []wakeModel{
	{name: "two workers", workers: 2, reqs: 3, replies: 3},
	{name: "three workers", workers: 3, reqs: 3, replies: 1},
}

// wakeModel bounds one search: the pool's threads per incarnation and
// the requests and replies that land in all.
type wakeModel struct {
	name          string
	workers       int8
	reqs, replies int8
}

// The model's poller, by state.
const (
	mpPolling  = iota // in its busy window or handling a completion
	mpParked          // parked on the receive CQ
	mpSignaled        // woken, not yet run
	mpForCall         // polling the CQ for a kernel-level caller
	mpPaying          // paying its wakeup
)

// The model's workers, counted by state.
const (
	mwBusy     = iota // executing a call, or not yet in LT_recvRPC
	mwSpin            // in its busy window
	mwSpinSig         // a spinner signaled, not yet run
	mwSleep           // parked past its window
	mwSleepSig        // a sleeper signaled, not yet run
	mwPaying          // paying its wakeup
	mwStates
)

// The model's callers: one kernel-level (0), one user-level (1).
const (
	mcIdle   = iota
	mcSpin   // in the busy window of its reply wait
	mcSleep  // parked past it
	mcPaying // woken by its reply, paying the wakeup
)

// Where a caller's reply is.
const (
	mrNone = iota
	mrWire
	mrCQ
	mrDone // delivered (or failed by a crash)
)

type wmCaller struct{ phase, reply int8 }

type wmState struct {
	rule   wakeRule
	pool   workerPool
	poller int8
	polled bool // the woken poller has handled a completion for a caller
	live   [mwStates]int8
	// dead counts the crashed incarnation's workers that have not yet
	// left LT_recvRPC. Its poller and busy workers exit without a call
	// into the rule, so they are not tracked.
	dead    [mwStates]int8
	cqReqs  int8 // requests in the receive CQ
	queue   int8 // calls dispatched to the pool
	callers [2]wmCaller
	landed  int8 // requests landed in all
	posted  int8 // calls the callers posted in all
	down    bool
	crashed bool
}

var wmVerbs = []string{
	"request lands", "reply lands", "caller posts", "caller's window lapses",
	"caller sees its reply", "caller paid its wakeup",
	"poller handles a completion", "poller's window lapses", "poller runs",
	"poller polls for a caller", "poller stops polling for callers", "poller paid its wakeup",
	"worker enters LT_recvRPC", "worker's window lapses", "signaled spinner runs",
	"signaled sleeper runs", "worker paid its wakeup",
	"crash", "crash and restart in one instant", "restart",
	"dead worker runs", "dead worker paid its wakeup",
}

const (
	wvRequest = iota
	wvReply
	wvPost
	wvCallerLapse
	wvCallerSees
	wvCallerPaid
	wvPollerHandles
	wvPollerLapse
	wvPollerRuns
	wvPollsForCaller
	wvStopsForCaller
	wvPollerPaid
	wvEnter
	wvWorkerLapse
	wvSpinnerRuns
	wvSleeperRuns
	wvWorkerPaid
	wvCrash
	wvCrashRestart
	wvRestart
	wvDeadRuns
	wvDeadPaid
)

func (m *wakeModel) start() wmState {
	st := wmState{}
	st.live[mwBusy] = m.workers
	return st
}

func (m *wakeModel) key(st *wmState) uint64 {
	var h stateHash
	h.add(int64(st.rule.poller), int64(st.rule.kernelSpin), int64(st.rule.userSpin),
		int64(st.pool.waiting), int64(st.pool.coming), int64(st.poller), b2i(st.polled),
		int64(st.cqReqs), int64(st.queue), int64(st.landed), int64(st.posted),
		b2i(st.down), b2i(st.crashed))
	for k := range st.live {
		h.add(int64(st.live[k]), int64(st.dead[k]))
	}
	for _, c := range st.callers {
		h.add(int64(c.phase), int64(c.reply))
	}
	return uint64(h)
}

// inWait counts the workers inside LT_recvRPC among ws.
func inWait(ws *[mwStates]int8) int {
	return int(ws[mwSpin] + ws[mwSpinSig] + ws[mwSleep] + ws[mwSleepSig] + ws[mwPaying])
}

// check returns the first law st breaks.
func (m *wakeModel) check(st *wmState) error {
	// The rule's counts are the threads they count: admission reads
	// waiting as threads ready to take a call, and the poller trusts
	// the spinners to be there.
	if w := inWait(&st.live) + inWait(&st.dead); st.pool.waiting != w {
		return fmt.Errorf("lost wakeup: waiting is %d with %d threads in LT_recvRPC", st.pool.waiting, w)
	}
	for k, c := range st.callers {
		n := st.rule.kernelSpin
		if k == 1 {
			n = st.rule.userSpin
		}
		if want := b2i(c.phase == mcSpin); int64(n) != want {
			return fmt.Errorf("lost wakeup: spinner count %d with %d callers of kind %d spinning", n, want, k)
		}
	}
	if int(st.pool.coming) > int(st.live[mwSleepSig]+st.live[mwPaying]) {
		return fmt.Errorf("spurious wakeup: coming is %d with %d sleepers on their way", st.pool.coming, st.live[mwSleepSig]+st.live[mwPaying])
	}
	if st.down {
		return nil
	}
	if want := [...]pollerState{pollerPolling, pollerAsleep, pollerWaking, pollerWaking, pollerWaking}[st.poller]; st.rule.poller != want && !(st.poller == mpSignaled && st.rule.poller == pollerAsleep) {
		return fmt.Errorf("lost wakeup: the rule has the poller in state %d, but it is in %d", st.rule.poller, st.poller)
	}
	cq := st.cqReqs > 0 || st.callers[0].reply == mrCQ || st.callers[1].reply == mrCQ
	if cq && st.poller == mpParked {
		return fmt.Errorf("lost wakeup: a completion waits in the CQ with the poller asleep")
	}
	if st.queue > 0 && st.live[mwBusy]+st.live[mwSpin]+st.live[mwSpinSig]+st.live[mwSleepSig]+st.live[mwPaying] == 0 {
		return fmt.Errorf("lost wakeup: %d calls queued with every worker asleep", st.queue)
	}
	if u := st.callers[1]; u.phase == mcSpin && u.reply != mrDone && st.poller == mpParked {
		return fmt.Errorf("double wakeup: a user-level caller spins with the poller asleep, so its reply pays the poller's wakeup")
	}
	return nil
}

// signal wakes one parked worker (sleeping or spinning) of st.
func (st *wmState) signal(from, to int) {
	st.live[from]--
	st.live[to]++
}

// dispatch queues a call as the poller does (dispatchCall) and returns
// the law the dispatch itself breaks.
func (st *wmState) dispatch() error {
	st.queue++
	onWay := st.pool.coming
	switch st.pool.dispatch(int(st.queue), int(st.live[mwSpin])) {
	case wakeSpinner:
		st.signal(mwSpin, mwSpinSig)
	case wakeSleeper:
		if st.live[mwSpin] > 0 {
			return fmt.Errorf("spurious wakeup: a dispatch woke a sleeper while a worker spun")
		}
		if int(st.queue) <= onWay {
			return fmt.Errorf("double wakeup: a dispatch woke a second worker for a call one woken at its arrival covers")
		}
		if st.live[mwSleep] > 0 {
			st.signal(mwSleep, mwSleepSig)
		}
	}
	return nil
}

// handle demultiplexes one completion from the CQ: request k < 0, or
// the reply of caller k.
func (st *wmState) handle(k int) error {
	if k < 0 {
		st.cqReqs--
		return st.dispatch()
	}
	c := &st.callers[k]
	c.reply = mrDone
	if c.phase == mcSleep {
		c.phase = mcPaying
	}
	return nil
}

// take dequeues a call for a worker that found one: it leaves LT_recvRPC
// to execute it.
func (st *wmState) take(from int) {
	st.queue--
	st.pool.takes()
	st.live[from]--
	st.live[mwBusy]++
}

// land puts a completion in the CQ, waking a parked poller.
func (st *wmState) land() {
	if st.poller == mpParked {
		st.poller = mpSignaled
	}
}

// crash kills the incarnation: the parked workers are signaled and
// join the dead, the poller dies, and the callers' calls fail. It
// returns the law the crash breaks.
func (st *wmState) crash() error {
	st.rule.pools = []*workerPool{&st.pool}
	st.rule.crash()
	st.rule.pools = nil
	if st.rule.poller != pollerPolling || st.pool.coming != 0 {
		return fmt.Errorf("crash: the next incarnation would start with the poller in state %d and %d workers on their way", st.rule.poller, st.pool.coming)
	}
	st.dead = st.live
	st.dead[mwSpinSig] += st.dead[mwSpin]
	st.dead[mwSleepSig] += st.dead[mwSleep]
	st.dead[mwSpin], st.dead[mwSleep], st.dead[mwBusy] = 0, 0, 0
	st.live = [mwStates]int8{}
	st.cqReqs, st.queue = 0, 0
	for k := range st.callers {
		c := &st.callers[k]
		if c.reply == mrWire || c.reply == mrCQ {
			c.reply = mrDone
			if c.phase == mcSleep {
				c.phase = mcPaying
			}
		}
	}
	st.down, st.crashed = true, true
	return nil
}

// restart boots the next incarnation: a fresh poller and pool.
func (m *wakeModel) restart(st *wmState) {
	st.down = false
	st.poller, st.polled = mpPolling, false
	st.live[mwBusy] = m.workers
}

func (m *wakeModel) expand(st *wmState, emit func(modelStep, *wmState, bool, error) error) error {
	// Threads woken at this instant run first.
	urgent := false
	step := func(verb, a int, f func(nx *wmState) error) error {
		nx := *st
		err := f(&nx)
		return emit(modelStep{verb: uint8(verb), a: int16(a)}, &nx, true, err)
	}
	try := func(ok bool, verb, a int, f func(nx *wmState) error) error {
		if !ok {
			return nil
		}
		urgent = true
		return step(verb, a, f)
	}
	if err := m.urgent(st, try); err != nil || urgent {
		return err
	}
	return m.timed(st, step)
}

type wmStepFn = func(verb, a int, f func(nx *wmState) error) error

// urgent explores the steps a thread woken at this instant takes before
// any time passes.
func (m *wakeModel) urgent(st *wmState, try func(bool, int, int, func(*wmState) error) error) error {
	if err := try(st.poller == mpSignaled && !st.down, wvPollerRuns, 0, func(nx *wmState) error {
		nx.rule.pollerWoken()
		nx.poller, nx.polled = mpForCall, false
		return nil
	}); err != nil {
		return err
	}
	cq := st.cqReqs > 0 || st.callers[0].reply == mrCQ || st.callers[1].reply == mrCQ
	if err := try(st.poller == mpForCall && !st.down && !(st.rule.pollsForCaller() && cq), wvStopsForCaller, 0, func(nx *wmState) error {
		if nx.polled && !cq && nx.rule.pollerIdles() {
			nx.poller = mpParked
		} else {
			nx.poller = mpPaying
		}
		return nil
	}); err != nil {
		return err
	}
	for k := range st.callers {
		c := st.callers[k]
		if err := try(c.phase == mcSpin && c.reply == mrDone, wvCallerSees, k, func(nx *wmState) error {
			nx.rule.callerStops(k == 1)
			nx.callers[k] = wmCaller{}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := try(st.live[mwSpinSig] > 0, wvSpinnerRuns, 0, func(nx *wmState) error {
		if nx.queue > 0 {
			nx.take(mwSpinSig)
		} else {
			nx.signal(mwSpinSig, mwSpin) // another took it: spin on
		}
		return nil
	}); err != nil {
		return err
	}
	if err := try(st.live[mwSleepSig] > 0, wvSleeperRuns, 0, func(nx *wmState) error {
		if nx.queue > 0 || nx.pool.called() {
			nx.signal(mwSleepSig, mwPaying)
		} else {
			nx.signal(mwSleepSig, mwSleep) // nothing for it: park again
		}
		return nil
	}); err != nil {
		return err
	}
	// The crashed incarnation's woken workers see it ended. A sleeper
	// that runs while its node is down pays its wakeup there; one that
	// runs after the restart leaves at once.
	if err := try(st.dead[mwSpinSig] > 0, wvDeadRuns, mwSpinSig, dying(func(nx *wmState) {
		nx.dead[mwSpinSig]--
		nx.pool.quits()
	})); err != nil {
		return err
	}
	return try(st.dead[mwSleepSig] > 0, wvDeadRuns, mwSleepSig, dying(func(nx *wmState) {
		nx.dead[mwSleepSig]--
		if nx.down {
			nx.dead[mwPaying]++
		} else {
			nx.pool.quits()
		}
	}))
}

// dying wraps a step of the crashed incarnation's threads: it must leave
// the rule as it found it, but for the waiting count of a thread that
// leaves LT_recvRPC.
func dying(f func(nx *wmState)) func(nx *wmState) error {
	return func(nx *wmState) error {
		r, coming := nx.rule, nx.pool.coming
		f(nx)
		if nx.rule.poller != r.poller || nx.rule.kernelSpin != r.kernelSpin || nx.rule.userSpin != r.userSpin || nx.pool.coming != coming {
			return fmt.Errorf("crash: a thread of the crashed incarnation changed the wake rule")
		}
		return nil
	}
}

// timed explores the steps that take time.
func (m *wakeModel) timed(st *wmState, step wmStepFn) error {
	cq := st.cqReqs > 0 || st.callers[0].reply == mrCQ || st.callers[1].reply == mrCQ
	var err error
	run := func(ok bool, verb, a int, f func(*wmState) error) {
		if ok && err == nil {
			err = step(verb, a, f)
		}
	}
	up := !st.down
	// Messages land.
	run(up && st.landed < m.reqs, wvRequest, 0, func(nx *wmState) error {
		nx.landed++
		nx.cqReqs++
		spinning, sleeping, away := nx.live[mwSpin], nx.live[mwSleep], nx.poller != mpPolling
		onWay := nx.live[mwSleepSig] + nx.live[mwPaying]
		nx.land()
		if nx.rule.requestLands(&nx.pool, int(spinning), int(sleeping)) {
			if spinning > 0 {
				return fmt.Errorf("spurious wakeup: a request woke a sleeper while a worker spun")
			}
			nx.signal(mwSleep, mwSleepSig)
		} else if away && spinning == 0 && onWay == 0 && sleeping > 0 {
			return fmt.Errorf("double wakeup: a request found the poller away and every worker asleep, and woke none, so a worker's wakeup follows the poller's")
		}
		return nil
	})
	for k := range st.callers {
		c := st.callers[k]
		run(up && c.reply == mrWire, wvReply, k, func(nx *wmState) error {
			nx.callers[k].reply = mrCQ
			nx.land()
			return nil
		})
		run(up && c.phase == mcIdle && st.posted < m.replies, wvPost, k, func(nx *wmState) error {
			nx.posted++
			nx.callers[k] = wmCaller{mcSpin, mrWire}
			if nx.rule.callerSpins(k == 1) {
				if nx.poller != mpParked {
					return fmt.Errorf("spurious wakeup: a caller prewoke a poller that was not asleep")
				}
				nx.poller = mpSignaled
			}
			return nil
		})
		run(c.phase == mcSpin && c.reply != mrDone, wvCallerLapse, k, func(nx *wmState) error {
			nx.rule.callerStops(k == 1)
			nx.callers[k].phase = mcSleep
			return nil
		})
		run(c.phase == mcPaying, wvCallerPaid, k, func(nx *wmState) error {
			nx.callers[k] = wmCaller{}
			return nil
		})
	}
	// The poller.
	if up {
		handle := func(verb int) {
			if st.cqReqs > 0 {
				run(true, verb, -1, func(nx *wmState) error { nx.polled = true; return nx.handle(-1) })
			}
			for k := range st.callers {
				run(st.callers[k].reply == mrCQ, verb, k, func(nx *wmState) error { nx.polled = true; return nx.handle(k) })
			}
		}
		switch st.poller {
		case mpPolling:
			handle(wvPollerHandles)
			run(!cq, wvPollerLapse, 0, func(nx *wmState) error {
				if nx.rule.pollerIdles() {
					nx.poller = mpParked
				}
				return nil
			})
		case mpForCall:
			handle(wvPollsForCaller)
		case mpPaying:
			run(true, wvPollerPaid, 0, func(nx *wmState) error {
				nx.rule.pollerAwake()
				nx.poller = mpPolling
				return nil
			})
		}
	}
	// The workers.
	run(st.live[mwBusy] > 0, wvEnter, 0, func(nx *wmState) error {
		nx.pool.enter()
		if nx.queue > 0 {
			nx.signal(mwBusy, mwSpin)
			nx.take(mwSpin)
		} else {
			nx.signal(mwBusy, mwSpin)
		}
		return nil
	})
	run(st.live[mwSpin] > 0, wvWorkerLapse, 0, func(nx *wmState) error {
		switch {
		case nx.queue > 0:
			nx.take(mwSpin)
		case nx.pool.called():
			nx.pool.leftSleep() // up for the call on its way: spin on
		default:
			nx.signal(mwSpin, mwSleep)
		}
		return nil
	})
	run(st.live[mwPaying] > 0, wvWorkerPaid, 0, func(nx *wmState) error {
		nx.pool.leftSleep()
		if nx.queue > 0 {
			nx.take(mwPaying)
		} else {
			nx.signal(mwPaying, mwSpin)
		}
		return nil
	})
	// The crashed incarnation's threads finish dying.
	run(st.dead[mwPaying] > 0, wvDeadPaid, 0, dying(func(nx *wmState) {
		nx.dead[mwPaying]--
		nx.pool.quits()
	}))
	// Crash, and restart: later, or in the same instant, before any
	// thread the crash woke has run.
	run(up && !st.crashed, wvCrash, 0, func(nx *wmState) error { return nx.crash() })
	run(up && !st.crashed, wvCrashRestart, 0, func(nx *wmState) error {
		err := nx.crash()
		m.restart(nx)
		return err
	})
	run(st.down, wvRestart, 0, func(nx *wmState) error {
		m.restart(nx)
		return nil
	})
	return err
}
