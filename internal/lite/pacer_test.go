package lite

import (
	"testing"
	"time"

	"lite/internal/simtime"
)

// pacerOpts builds a deployment where overload is easy to provoke: one
// slow worker, a shallow admission queue, fair admission (so sheds
// carry a Retry-After horizon), and short client timeouts.
func pacerOpts(pacer bool) Options {
	opts := DefaultOptions()
	opts.RPCTimeout = 400 * time.Microsecond
	opts.RetryBackoff = 20 * time.Microsecond
	opts.AdmissionHighWater = 4
	opts.FairAdmission = true
	opts.Pacer = pacer
	return opts
}

// runPacerBurst hammers a slow single-worker server (service time
// work) from several client threads and reports the delayed-by-pacer
// counter plus how many calls ultimately failed.
func runPacerBurst(t *testing.T, pacer bool, work simtime.Time) (delayed int64, failures int) {
	t.Helper()
	cls, dep := testDepOpts(t, 3, pacerOpts(pacer))
	cls.EnableObs()
	srv := dep.Instance(2)
	if err := srv.ServeRPC(echoFn, 1, func(p *simtime.Proc, c *Call) []byte {
		p.Work(work)
		return c.Input
	}); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		node := node
		for th := 0; th < 4; th++ {
			cls.GoOn(node, "pacer-client", func(p *simtime.Proc) {
				c := dep.Instance(node).KernelClient()
				for k := 0; k < 12; k++ {
					if _, err := c.RPCRetry(p, 2, echoFn, make([]byte, 16), 64); err != nil {
						failures++
					}
				}
			})
		}
	}
	run(t, cls)
	checkRingsSettled(t, dep) // fair sheds credit their frames too
	return cls.Obs.Total("lite.pacer.delayed"), failures
}

// TestPacerHonorsRetryAfter: with the pacer on, Retry-After horizons
// learned from sheds make later calls to the same (server, fn) wait
// out the horizon instead of burning a round trip to be shed — the
// lite.pacer.delayed counter proves calls were actually held back, and
// pacing must not turn any call into a failure. With the pacer off the
// counter must stay zero (the option is purely opt-in).
//
// Each node runs four threads against a share of two, so who gets a
// freed slot is a race the burst runs hundreds of times; the handler's
// service time is swept in 37 ns steps so that "no call failed" is
// checked across forty different interleavings of that race, not the
// one a single timeline happens to produce.
func TestPacerHonorsRetryAfter(t *testing.T) {
	const work = 5 * time.Microsecond
	for k := 0; k < 40; k++ {
		w := work + simtime.Time(k)*37*time.Nanosecond
		delayed, failures := runPacerBurst(t, true, w)
		if delayed == 0 {
			t.Errorf("pacer on, %v handler: lite.pacer.delayed = 0, want > 0 (no call was ever paced)", w)
		}
		if failures != 0 {
			t.Errorf("pacer on, %v handler: %d calls failed, want 0", w, failures)
		}
	}

	// Pacer off: the counter must stay zero (the option is opt-in).
	// Calls may fail here — retries burned on being shed again are the
	// failure mode the pacer exists to remove.
	if delayed, _ := runPacerBurst(t, false, work); delayed != 0 {
		t.Errorf("pacer off: lite.pacer.delayed = %d, want 0", delayed)
	}
}
