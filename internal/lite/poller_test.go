package lite

import (
	"testing"
	"time"

	"lite/internal/params"
	"lite/internal/simtime"
)

// pollerRun is what one LT_RPC saw of the client node's shared poller.
type pollerRun struct {
	lat, pollerCPU, idleCPU  simtime.Time
	sleeps, prewakes, polled int64
	asleepAtCall             bool
}

// runPollerScenario issues, from node 0 at kernel or user level, a
// warm-up call, an idle 200 µs, one quick call, a pause of gap and
// then the measured call, which the server holds for delay before it
// replies. If ping is set, node 2 sends node 0 a keepalive probe ping
// before the measured call (and one at boot, to bind). The poller's
// counters cover the measured call and the 200 µs after it, by which
// time every busy window it opened has run out; idleCPU is node 0's CPU
// over a further idle 200 µs.
func runPollerScenario(t *testing.T, user bool, gap, delay, ping simtime.Time) (r pollerRun) {
	t.Helper()
	cls, dep := testDep(t, 3)
	dom := cls.EnableObs()
	startSlowEchoServer(cls, dep, 1, delay)
	if ping > 0 {
		cls.GoOn(2, "warm-prober", func(q *simtime.Proc) {
			if _, err := dep.Instance(2).ctlPing(q, 0); err != nil {
				t.Error(err)
			}
		})
	}
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		inst := dep.Instance(0)
		c := inst.KernelClient()
		if user {
			c = inst.UserClient()
		}
		call := func(in string) bool {
			if _, err := c.RPC(p, 1, slowFn, []byte(in), 64); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		if !call("warm") {
			return
		}
		p.Sleep(200 * time.Microsecond)
		if !call("quick") {
			return
		}
		if ping > 0 {
			cls.GoOn(2, "prober", func(q *simtime.Proc) {
				q.Sleep(gap - ping)
				if _, err := dep.Instance(2).ctlPing(q, 0); err != nil {
					t.Error(err)
				}
			})
		}
		p.Sleep(gap)
		count := func(name string) int64 { return dom.Node(0).Snapshot().Counters[name] }
		sleeps0, prewakes0 := count("lite.poller.sleeps"), count("lite.poller.prewakes")
		polled0, poll0 := count("lite.poller.caller_polled"), pollerCPU(dom, 0)
		r.asleepAtCall = inst.wake.poller == pollerAsleep
		t0 := p.Now()
		if !call("Stalled") {
			return
		}
		r.lat = p.Now() - t0
		p.Sleep(200 * time.Microsecond)
		r.sleeps = count("lite.poller.sleeps") - sleeps0
		r.prewakes = count("lite.poller.prewakes") - prewakes0
		r.polled = count("lite.poller.caller_polled") - polled0
		r.pollerCPU = pollerCPU(dom, 0) - poll0
		cpu0 := cls.Nodes[0].CPU.Busy()
		p.Sleep(200 * time.Microsecond)
		r.idleCPU = cls.Nodes[0].CPU.Busy() - cpu0
	})
	run(t, cls)
	return r
}

// TestUserReplyNeverWaitsForSleepingPoller: a user-level caller cannot
// poll the receive CQ, so while it spins on its reply the shared poller
// must be awake to deliver it. Then no reply waits for a poller wakeup
// that a kernel-level caller (which polls the CQ itself) would not pay
// either: whatever the poller was doing, the user call takes exactly
// the kernel call plus the kernel entry. The ways the poller could be
// asleep when the reply lands:
//   - it was asleep at post, so the caller wakes it at post time;
//   - its busy window runs out while the call is in flight, so it must
//     not sleep;
//   - the server stalls past the caller's own window, so the caller
//     sleeps and the poller must sleep again, and an idle node still
//     burns no core;
//   - a keepalive lands while the prewaked poller pays its wakeup, so
//     the poller must not take the keepalive-only fast sleep.
func TestUserReplyNeverWaitsForSleepingPoller(t *testing.T) {
	cfg := params.Default()
	enter := cfg.SyscallCrossing + cfg.KernelDispatch
	window, wakeup := cfg.AdaptivePollWindow, cfg.WakeupLatency
	for _, tc := range []struct {
		name             string
		gap, delay, ping simtime.Time
	}{
		{"asleep at post", 200 * time.Microsecond, 0, 0},
		{"window runs out in flight", 4 * time.Microsecond, 4 * time.Microsecond, 0},
		{"server stalls past the caller's window", 200 * time.Microsecond, 50 * time.Microsecond, 0},
		{"keepalive lands during the wakeup", 200 * time.Microsecond, 0, 1 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := runPollerScenario(t, false, tc.gap, tc.delay, tc.ping)
			u := runPollerScenario(t, true, tc.gap, tc.delay, tc.ping)
			if want := k.lat + enter; u.lat != want {
				t.Errorf("user call %v, kernel call %v: want user = kernel + entry %v = %v", u.lat, k.lat, enter, want)
			}
			if u.polled != 0 {
				t.Errorf("user call: %d completions caller-polled, want 0", u.polled)
			}
			if u.idleCPU != 0 || k.idleCPU != 0 {
				t.Errorf("idle node burned %v (user run) and %v (kernel run) of CPU, want 0", u.idleCPU, k.idleCPU)
			}
			switch tc.name {
			case "asleep at post":
				if !u.asleepAtCall || u.prewakes != 1 || u.sleeps != 1 {
					t.Errorf("user call: poller asleep at call %v, %d prewakes, %d sleeps; want true, 1 and 1 (after the reply's window)",
						u.asleepAtCall, u.prewakes, u.sleeps)
				}
			case "window runs out in flight":
				// The quick call's reply opened the poller's window before
				// the pause; the measured reply lands more than a window
				// later, and the poller, awake at the call, must not
				// sleep in between: it sleeps once, after the reply's
				// window.
				if tc.gap+u.lat < window+time.Microsecond {
					t.Fatalf("pause %v + call %v is within a %v window: the scenario no longer runs the window out in flight", tc.gap, u.lat, window)
				}
				if u.asleepAtCall || u.prewakes != 0 || u.sleeps != 1 {
					t.Errorf("user call: poller asleep at call %v, %d prewakes, %d sleeps; want false, 0 and 1",
						u.asleepAtCall, u.prewakes, u.sleeps)
				}
			case "keepalive lands during the wakeup":
				// A batch of keepalives alone after a wakeup normally
				// sends the poller straight back to sleep; not while the
				// caller that prewaked it spins.
				if u.prewakes != 1 || u.sleeps != 1 {
					t.Errorf("user call: %d prewakes, %d sleeps; want 1 and 1 (after the reply's window)", u.prewakes, u.sleeps)
				}
			case "server stalls past the caller's window":
				// Prewaked at post, the poller sleeps again within one
				// window of the caller's own sleep, and the reply wakes
				// it once more. Its CPU is bounded by those two wakeups,
				// the caller's window plus one window of its own, the
				// handle and the reply's window.
				if u.prewakes != 1 || u.sleeps != 2 {
					t.Errorf("user call: %d prewakes, %d sleeps; want 1 and 2 (asleep through the stall)", u.prewakes, u.sleeps)
				}
				if bound := 2*wakeup + 3*window + pollerHandleCost; u.pollerCPU > bound {
					t.Errorf("user call: poller burned %v over a %v stall, want <= %v", u.pollerCPU, tc.delay, bound)
				}
			}
		})
	}
}

// TestUserCallWhileCallerPollsKeepsPollerAwake: a kernel-level caller
// borrows the sleeping poller to demultiplex its reply (pollForCaller).
// A user-level call posted in that instant finds the poller not parked,
// so nothing wakes it; the poller must notice the new user spinner on
// its own and stay awake instead of going back to sleep. Sweeping the
// user call's start across the kernel reply's arrival, no user call
// may pay a poller wakeup over the fastest one. The sweep is placed
// around a measured idle kernel call, so it follows the reply wherever
// the server's costs put it.
func TestUserCallWhileCallerPollsKeepsPollerAwake(t *testing.T) {
	wakeup := params.Default().WakeupLatency
	// sequence warms both callers, lets the poller fall asleep, and times
	// an idle kernel call; with userAt >= 0 a user call starts userAt
	// into it, and its latency and whether it prewoke the poller are
	// returned too.
	sequence := func(userAt simtime.Time) (kernelLat, userLat simtime.Time, prewakes int64) {
		cls, dep := testDep(t, 2)
		dom := cls.EnableObs()
		startEchoServer(cls, dep, 1, 2)
		cls.GoOn(0, "kernel-caller", func(p *simtime.Proc) {
			inst := dep.Instance(0)
			k, u := inst.KernelClient(), inst.UserClient()
			for _, c := range []*Client{k, u} {
				if _, err := c.RPC(p, 1, echoFn, []byte("warm"), 64); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(200 * time.Microsecond) // the poller is asleep
			prewakes0 := dom.Node(0).Snapshot().Counters["lite.poller.prewakes"]
			if userAt >= 0 {
				cls.GoOn(0, "user-caller", func(q *simtime.Proc) {
					q.Sleep(userAt)
					t0 := q.Now()
					if _, err := u.RPC(q, 1, echoFn, []byte("user"), 64); err != nil {
						t.Error(err)
					}
					userLat = q.Now() - t0
					prewakes = dom.Node(0).Snapshot().Counters["lite.poller.prewakes"] - prewakes0
				})
			}
			t0 := p.Now()
			if _, err := k.RPC(p, 1, echoFn, []byte("kernel"), 64); err != nil {
				t.Error(err)
			}
			kernelLat = p.Now() - t0
		})
		run(t, cls)
		return kernelLat, userLat, prewakes
	}
	idle, _, _ := sequence(-1)
	var fastest, slowest simtime.Time
	borrowed := 0
	for d := idle - time.Microsecond; d <= idle+500*time.Nanosecond; d += 10 * time.Nanosecond {
		_, lat, prewakes := sequence(d)
		if fastest == 0 || lat < fastest {
			fastest = lat
		}
		slowest = max(slowest, lat)
		if prewakes == 0 {
			borrowed++
		}
	}
	if borrowed == 0 {
		t.Fatal("no user call was posted while the kernel caller polled for the poller: the sweep no longer covers the case")
	}
	if slowest-fastest >= wakeup/2 {
		t.Errorf("user calls took %v to %v: one paid a poller wakeup (%v)", fastest, slowest, wakeup)
	}
}
