package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lite/internal/lite"
	"lite/internal/simtime"
)

// The replay check returns the first outcome when both runs agree, and
// otherwise an error naming the experiment and showing both outcomes.
func TestReplayReportsDivergence(t *testing.T) {
	type outcome struct{ ops, errs int64 }
	runs := func(outs ...outcome) func() (outcome, error) {
		return func() (outcome, error) {
			o := outs[0]
			outs = outs[1:]
			return o, nil
		}
	}
	got, err := replay("demo", runs(outcome{10, 0}, outcome{10, 0}))
	if err != nil || got != (outcome{10, 0}) {
		t.Fatalf("agreeing runs: replay = %+v, %v", got, err)
	}
	_, err = replay("demo", runs(outcome{10, 0}, outcome{10, 1}))
	if err == nil {
		t.Fatal("diverging runs: replay returned no error")
	}
	for _, want := range []string{"demo", "{ops:10 errs:0}", "{ops:10 errs:1}"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diverging runs: error %q does not show %q", err, want)
		}
	}
	boom := errors.New("boom")
	_, err = replay("demo", func() (outcome, error) { return outcome{}, boom })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "demo: ") {
		t.Errorf("failing run: replay error = %v, want boom wrapped under the experiment id", err)
	}
}

// meanLatency on a 2-node cluster: op i sleeps i+1 us, so after two
// warm-up ops the four timed ones take 3, 4, 5 and 6 us — a mean of
// 4.5 us, with the warm-ups excluded.
func TestMeanLatencyExcludesWarmup(t *testing.T) {
	cls, err := newBare(2)
	if err != nil {
		t.Fatal(err)
	}
	var lat simtime.Time
	var seen []int
	err = runProc(cls, 0, "bench", func(p *simtime.Proc) (err error) {
		lat, err = meanLatency(p, 2, 4, func(i int) error {
			seen = append(seen, i)
			p.Sleep(simtime.Time(i+1) * simtime.Time(time.Microsecond))
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat != 4500 || len(seen) != 6 || seen[5] != 5 {
		t.Errorf("meanLatency = %v over ops %v, want 4.5us over ops 0..5", lat, seen)
	}
}

// A window over two threads on a 2-node cluster, one warm-up op and
// three timed ones each: thread 0's ops take 1 us, thread 1's 2 us.
// Thread 1 reaches the barrier last, at 2 us, which opens the window;
// it finishes its timed ops at 8 us, which closes it: a 6 us span.
func TestWindowSpansBarrierToLastCompletion(t *testing.T) {
	cls, err := newBare(2)
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(2, 1, 3, true)
	for th := 0; th < 2; th++ {
		cls.GoOn(0, "thread", func(p *simtime.Proc) {
			w.run(p, func() error {
				p.Sleep(simtime.Time(th+1) * simtime.Time(time.Microsecond))
				return nil
			})
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if el, err := w.elapsed(); err != nil || w.start != 2000 || el != 6000 {
		t.Errorf("window [%v, %v] = %v, %v; want [2us, 8us] = 6us", w.start, w.last, el, err)
	}
}

// A thread whose op fails releases the barrier instead of stranding the
// others there, and elapsed reports the failure.
func TestWindowFailureReleasesBarrier(t *testing.T) {
	cls, err := newBare(2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	w := newWindow(2, 1, 3, true)
	for th := 0; th < 2; th++ {
		cls.GoOn(0, "thread", func(p *simtime.Proc) {
			w.run(p, func() error {
				p.Sleep(simtime.Time(time.Microsecond))
				if th == 1 {
					return boom
				}
				return nil
			})
		})
	}
	if err := cls.Run(); err != nil {
		t.Fatalf("a failed thread stranded the others: %v", err)
	}
	if _, err := w.elapsed(); !errors.Is(err, boom) {
		t.Errorf("elapsed = %v, want the thread's error", err)
	}
}

// resubmit backs off by each shed's Retry-After hint (1 us when the
// hint is zero), counts the sheds, and returns the first answer that is
// not a shed.
func TestResubmitHonoursRetryAfter(t *testing.T) {
	cls, err := newBare(1)
	if err != nil {
		t.Fatal(err)
	}
	answers := []error{&lite.OverloadError{RetryAfter: 5000}, &lite.OverloadError{}, nil}
	var sheds int64
	var took simtime.Time
	err = runProc(cls, 0, "client", func(p *simtime.Proc) error {
		start := p.Now()
		err := resubmit(p, &sheds, func() error {
			err := answers[0]
			answers = answers[1:]
			return err
		})
		took = p.Now() - start
		return err
	})
	if err != nil || sheds != 2 || took != 6000 {
		t.Errorf("resubmit = %v after %d sheds and %v, want success after 2 sheds and 6us", err, sheds, took)
	}
}
