package lite

// The adaptive thread model (§5.2): a shared poller per node, the
// LT_recvRPC worker pools and LT_RPC callers, each spinning for a busy
// window before it sleeps. wakeRule and workerPool hold its state and
// decide, per event, whom to wake; they do no I/O, and rpc.go keeps
// the conds and threads and asks them. TestWakeRuleModel checks every
// interleaving of a poller, a pool and two callers, crash and restart
// included, against four laws:
//   - no lost wakeup: a queued call always has a thread polling,
//     spinning or on its way;
//   - no double wakeup on a critical path: a request or reply that
//     lands while a sleeper exists pays at most one wakeup;
//   - no spurious wakeup: coming never exceeds the sleepers on their
//     way, and a spinning worker means nobody is woken;
//   - a crash leaves no state that wakes anyone in the next
//     incarnation.

// pollerState is where the shared poller is.
type pollerState uint8

const (
	pollerPolling pollerState = iota // polling the receive CQ or handling what it polled
	pollerAsleep                     // parked on the receive CQ
	pollerWaking                     // woken: polling for a caller, or paying its wakeup
)

// wakeRule is one node's thread model.
type wakeRule struct {
	poller pollerState
	// kernelSpin and userSpin count the callers inside the busy window
	// of a reply wait. A kernel-level caller polls the receive CQ for a
	// sleeping poller; a user-level one cannot reach the CQ, so only
	// the poller can deliver its reply and it keeps the poller awake.
	kernelSpin, userSpin int
	pools                []*workerPool
}

// workerPool is one LT_recvRPC or LT_recv function's threads. A call
// goes to the newest spinner, so the threads the load does not need
// let their windows lapse; only when none spins is a sleeper woken.
type workerPool struct {
	// waiting counts the threads inside LT_recvRPC. Admission reads it
	// (idle): a thread no queued call has claimed runs a new call at
	// once, so shedding that call would only idle the server.
	waiting int
	// coming counts the sleepers woken at a request's arrival that have
	// not yet left their sleep: each is on its way to its busy window,
	// so the call it was woken for wakes nobody else at its dispatch.
	coming int
}

// whom names the thread a dispatch wakes.
type whom uint8

const (
	wakeNobody whom = iota
	wakeSpinner
	wakeSleeper
)

func (r *wakeRule) newPool() *workerPool {
	f := &workerPool{}
	r.pools = append(r.pools, f)
	return f
}

// callerSpins: a caller opens the busy window of its reply wait. It
// reports whether to wake the sleeping poller now, for a user-level
// caller: its wakeup then overlaps the round trip.
func (r *wakeRule) callerSpins(user bool) bool {
	if !user {
		r.kernelSpin++
		return false
	}
	r.userSpin++
	if r.poller != pollerAsleep {
		return false
	}
	r.poller = pollerWaking
	return true
}

// callerStops: the caller's busy window has ended.
func (r *wakeRule) callerStops(user bool) {
	if user {
		r.userSpin--
	} else {
		r.kernelSpin--
	}
}

// pollerIdles: the poller found nothing to do. It reports whether the
// poller sleeps: not while a user-level caller spins on a reply.
func (r *wakeRule) pollerIdles() bool {
	if r.userSpin > 0 {
		return false
	}
	r.poller = pollerAsleep
	return true
}

// pollerWoken: the poller has left its wait on the receive CQ.
func (r *wakeRule) pollerWoken() { r.poller = pollerWaking }

// pollsForCaller reports whether the woken poller polls the receive CQ
// on a spinning kernel-level caller's behalf.
func (r *wakeRule) pollsForCaller() bool { return r.kernelSpin > 0 }

// pollerAwake: the poller has paid its wakeup.
func (r *wakeRule) pollerAwake() { r.poller = pollerPolling }

// requestLands: a request for f landed in the receive CQ while spinning
// of f's threads spin and sleeping sleep. It reports whether to wake a
// sleeper now: with the poller away and nobody spinning or on the way,
// its wakeup then runs alongside the poller's, not after the dispatch.
func (r *wakeRule) requestLands(f *workerPool, spinning, sleeping int) bool {
	if r.poller == pollerPolling || f.coming > 0 || spinning > 0 || sleeping == 0 {
		return false
	}
	f.coming++
	return true
}

// dispatch: a call for f was queued, queued in all, while spinning of
// f's threads spin. A spinner takes it; failing one, a sleeper is woken
// only for calls the sleepers on their way do not cover.
func (f *workerPool) dispatch(queued, spinning int) whom {
	switch {
	case spinning > 0:
		return wakeSpinner
	case queued > f.coming:
		return wakeSleeper
	}
	return wakeNobody
}

// called reports whether a sleeper is on its way, so a thread leaving
// its sleep, or its busy window, stays up for the call.
func (f *workerPool) called() bool { return f.coming > 0 }

// leftSleep: a thread left its sleep, or its busy window while a
// sleeper was on its way; the first to do so counts as that one.
func (f *workerPool) leftSleep() {
	if f.coming > 0 {
		f.coming--
	}
}

// enter: a thread starts waiting for a call. It leaves with one
// (takes) or because its node crashed (quits).
func (f *workerPool) enter() { f.waiting++ }
func (f *workerPool) takes() { f.waiting-- }
func (f *workerPool) quits() { f.waiting-- }

// idle reports whether a waiting thread no queued call has claimed
// would run a new call at once.
func (f *workerPool) idle(queued int) bool { return queued < f.waiting }

// crash: the node's kernel went away, and its poller and the sleepers
// on their way with it. Its threads exit without another event, so the
// next incarnation's poller starts polling and nobody is on the way.
func (r *wakeRule) crash() {
	r.poller = pollerPolling
	for _, f := range r.pools {
		f.coming = 0
	}
}
