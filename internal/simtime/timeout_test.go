package simtime

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// A timed wait whose proc still has an earlier timeout event queued
// queues none of its own: that stale event re-queues the deadline under
// the deadline's own (t, seq) when it pops. Two same-instant timeouts
// therefore fire in arm order even when the first was re-queued, and a
// callback armed between them fires between them.
func TestRequeuedTimeoutKeepsArmOrder(t *testing.T) {
	e := NewEnv()
	var ca, cd Cond
	var trace []string
	note := func(who string) { trace = append(trace, fmt.Sprintf("%s@%v", who, e.Now())) }
	a := e.Go("a", func(p *Proc) {
		if !ca.WaitTimeout(p, 5*time.Microsecond) {
			t.Error("a's first wait timed out; want the signal at 1µs")
		}
		if !ca.WaitTimeout(p, 9*time.Microsecond) {
			note("a")
		}
	})
	e.Go("d", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ca.Signal(e)
		p.Yield() // a runs: its second deadline, 10µs, is covered by its 5µs event
		if a.tseq == 0 || a.tt != 5*time.Microsecond || a.dl.t != 10*time.Microsecond || a.dl.seq == a.tseq {
			t.Errorf("a's timeout state: queued event at %v (seq %d), deadline %v (seq %d); want the 5µs event covering the 10µs deadline",
				a.tt, a.tseq, a.dl.t, a.dl.seq)
		}
		e.At(10*time.Microsecond, func(*Env) { note("at") })
		if !cd.WaitTimeout(p, 9*time.Microsecond) {
			note("d")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@10µs", "at@10µs", "d@10µs"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", trace, want)
	}
	// Delivered: two spawns, d's sleep, the signal, d's yield, the
	// callback and the two timeouts. The stale 5µs event is not counted.
	if got := e.Events(); got != 8 {
		t.Fatalf("Events() = %d, want 8", got)
	}
}

// timedOp is one step of a randomized proc script.
type timedOp struct {
	kind int // opSleep, opYield, opWait, opSignal, opSignalNewest, opBroadcast, opAt
	d    Time
	cond int
}

const (
	opSleep = iota
	opYield
	opWait // Cond.WaitTimeout
	opSignal
	opSignalNewest
	opBroadcast
	opAt // a callback at now+d that signals cond
)

// wake is one entry of a wake trace: which proc resumed, when, why.
type wake struct {
	proc   int
	t      Time
	reason WakeReason
}

// randomScripts returns procs scripts of steps ops each over conds
// conds. Durations come from a short list, so many waits share
// instants, and reach from zero to seconds ahead.
func randomScripts(rng *testRand, procs, steps, conds int) [][]timedOp {
	durs := []Time{0, 0, 100, 100, 256, 300, 1000, 1000, 5000, 40_000, 2_000_000, 5_000_000_000}
	// Timed waits, the subject, and signals, which end them early, are
	// weighted up.
	kinds := []int{opSleep, opYield, opWait, opWait, opWait, opSignal, opSignal, opSignalNewest, opBroadcast, opAt}
	out := make([][]timedOp, procs)
	for i := range out {
		for k := 0; k < steps; k++ {
			out[i] = append(out[i], timedOp{
				kind: kinds[rng.next()%uint64(len(kinds))],
				d:    durs[rng.next()%uint64(len(durs))],
				cond: int(rng.next() % uint64(conds)),
			})
		}
	}
	return out
}

// runScripts runs the scripts on an Env and returns its wake trace,
// event count and final time, and how many timeouts fired from a
// deadline that an earlier timeout event had re-queued.
func runScripts(scripts [][]timedOp, conds int) (trace []wake, events int64, now Time, requeued int, err error) {
	e := NewEnv()
	cs := make([]Cond, conds)
	for i, script := range scripts {
		i, script := i, script
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, op := range script {
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
					trace = append(trace, wake{i, p.Now(), WakeTimer})
				case opYield:
					p.Yield()
					trace = append(trace, wake{i, p.Now(), WakeTimer})
				case opWait:
					covered := p.tseq != 0 && p.tt <= p.Now()+op.d
					r := WakeTimer
					if cs[op.cond].WaitTimeout(p, op.d) {
						r = WakeSignal
					} else if covered {
						requeued++
					}
					trace = append(trace, wake{i, p.Now(), r})
				case opSignal:
					cs[op.cond].Signal(e)
				case opSignalNewest:
					cs[op.cond].SignalNewest(e)
				case opBroadcast:
					cs[op.cond].Broadcast(e)
				case opAt:
					c := &cs[op.cond]
					e.At(p.Now()+op.d, func(e *Env) { c.Signal(e) })
				}
			}
		})
	}
	err = e.Run()
	return trace, e.Events(), e.Now(), requeued, err
}

// modelScripts runs the scripts on a naive reference scheduler: every
// timed wait queues its timeout event at arm time (eagerly), the queue
// is a slice searched for the least (t, seq), and an event is skipped
// if its proc has moved on to a later wait generation. Cond records and
// sequence numbers follow the same rules as Env's.
func modelScripts(scripts [][]timedOp, conds int) ([]wake, int64, Time) {
	type ev struct {
		t      Time
		seq    int64
		proc   int // -1: callback signalling cond
		cond   int
		gen    uint64
		reason WakeReason
	}
	type rec struct {
		proc int
		gen  uint64
	}
	type proc struct {
		pc     int
		gen    uint64
		parked bool
		done   bool
	}
	var (
		now    Time
		seq    int64
		events int64
		q      []ev
		trace  []wake
	)
	procs := make([]proc, len(scripts))
	cq := make([][]rec, conds)
	push := func(e ev) {
		if e.t < now {
			e.t = now
		}
		seq++
		e.seq = seq
		q = append(q, e)
	}
	signal := func(c int, newest bool) bool {
		for len(cq[c]) > 0 {
			var r rec
			if newest {
				r = cq[c][len(cq[c])-1]
				cq[c] = cq[c][:len(cq[c])-1]
			} else {
				r = cq[c][0]
				cq[c] = cq[c][1:]
			}
			if r.gen == procs[r.proc].gen && !procs[r.proc].done {
				push(ev{t: now, proc: r.proc, gen: r.gen, reason: WakeSignal})
				return true
			}
		}
		return false
	}
	block := func(i int, t Time) {
		p := &procs[i]
		p.gen++
		p.parked = true
		push(ev{t: t, proc: i, gen: p.gen, reason: WakeTimer})
	}
	// run resumes proc i after a wake for reason r and runs it to its
	// next blocking op.
	run := func(i int, r WakeReason, started bool) {
		p := &procs[i]
		script := scripts[i]
		if started {
			op := script[p.pc]
			if op.kind == opWait && r == WakeTimer {
				for k, x := range cq[op.cond] {
					if x == (rec{i, p.gen}) {
						cq[op.cond] = append(cq[op.cond][:k:k], cq[op.cond][k+1:]...)
						break
					}
				}
			}
			trace = append(trace, wake{i, now, r})
			p.pc++
		}
		for ; p.pc < len(script); p.pc++ {
			op := script[p.pc]
			switch op.kind {
			case opSleep:
				block(i, now+max(op.d, 0))
				return
			case opYield:
				block(i, now)
				return
			case opWait:
				p.gen++
				p.parked = true
				cq[op.cond] = append(cq[op.cond], rec{i, p.gen})
				push(ev{t: now + op.d, proc: i, gen: p.gen, reason: WakeTimer})
				return
			case opSignal:
				signal(op.cond, false)
			case opSignalNewest:
				signal(op.cond, true)
			case opBroadcast:
				for signal(op.cond, false) {
				}
			case opAt:
				push(ev{t: now + op.d, proc: -1, cond: op.cond})
			}
		}
		p.done = true
		p.parked = false
	}
	started := make([]bool, len(scripts))
	for i := range procs {
		procs[i].gen = 1
		procs[i].parked = true
		push(ev{t: 0, proc: i, gen: 1, reason: WakeSignal})
	}
	for {
		live := 0
		for i := range procs {
			if !procs[i].done {
				live++
			}
		}
		if live == 0 || len(q) == 0 {
			return trace, events, now
		}
		sort.Slice(q, func(a, b int) bool {
			if q[a].t != q[b].t {
				return q[a].t < q[b].t
			}
			return q[a].seq < q[b].seq
		})
		x := q[0]
		q = q[1:]
		if x.proc < 0 {
			now = max(now, x.t)
			events++
			signal(x.cond, false)
			continue
		}
		p := &procs[x.proc]
		if x.gen != p.gen || !p.parked {
			continue
		}
		now = max(now, x.t)
		events++
		p.parked = false
		run(x.proc, x.reason, started[x.proc])
		started[x.proc] = true
	}
}

// TestWaitTimeoutMatchesEagerModel runs seeded random scripts of timed
// waits, signals, sleeps, yields and callbacks, and requires Env's wake
// trace (proc, time, reason), event count and final time to equal those
// of a reference scheduler that queues every timeout eagerly. Between
// them the seeds must fire well over one timeout per seed from a
// deadline re-queued behind a stale timeout event.
func TestWaitTimeoutMatchesEagerModel(t *testing.T) {
	const conds, seeds = 3, 60
	total := 0
	for seed := 1; seed <= seeds; seed++ {
		rng := testRand(seed * 2654435761)
		procs := 2 + int(rng.next()%6)
		scripts := randomScripts(&rng, procs, 100, conds)
		got, gotEvents, gotNow, requeued, err := runScripts(scripts, conds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, wantEvents, wantNow := modelScripts(scripts, conds)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d wakes, model has %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: wake %d = %+v, model has %+v", seed, k, got[k], want[k])
			}
		}
		if gotEvents != wantEvents || gotNow != wantNow {
			t.Fatalf("seed %d: %d events ending at %v, model has %d at %v", seed, gotEvents, gotNow, wantEvents, wantNow)
		}
		total += requeued
	}
	if total < 2*seeds {
		t.Fatalf("%d timeouts fired from a re-queued deadline over %d seeds, want at least %d", total, seeds, 2*seeds)
	}
}
