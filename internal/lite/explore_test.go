package lite

import (
	"fmt"
	"slices"
	"strings"
)

// The protocol models (TestRingCreditModel, TestSendQueueModel,
// TestOwnershipModel, TestWakeRuleModel) share this breadth-first
// search over hashed states.

// modelStep names how a model state was reached: an index into the
// model's verbs and two numbers, formatted only for a report.
type modelStep struct {
	verb uint8
	a, b int16
}

// stateHash hashes a model state's canonical encoding, one number at a
// time. The search keeps only the hashes: two of a few million states
// share one with odds below one in a million.
type stateHash uint64

func (h *stateHash) add(v ...int64) {
	for _, x := range v {
		*h = (*h ^ stateHash(x)) * 0x100000001b3
		*h ^= *h >> 32
	}
}

// stateSet is a set of state hashes: open addressing with linear
// probing, 0 marking an empty slot.
type stateSet struct {
	slots []uint64
	n     int
}

// add inserts h and reports whether it was new.
func (s *stateSet) add(h uint64) bool {
	h |= 1
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint64, max(1<<16, 2*len(old))), 0
		for _, o := range old {
			if o != 0 {
				s.add(o)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return false
		case 0:
			s.slots[i] = h
			s.n++
			return true
		}
	}
}

// exploreLimit bounds the states one search may visit, so a model
// whose bounds do not bound it fails instead of exhausting memory.
const exploreLimit = 4 << 20

// explore visits every state reachable from start, breadth first, once
// per key. expand calls emit with each successor of a state, the step
// that reached it, whether it is within the model's bounds, and any
// law the step itself broke; a successor within bounds must also pass
// check. explore returns how many states it visited, or the first
// broken law with the steps that reach it.
func explore[S any](start S, verbs []string, key func(*S) uint64, check func(*S) error,
	expand func(*S, func(modelStep, *S, bool, error) error) error) (int, error) {
	type visit struct {
		st S
		id int32
	}
	parent, steps := []int32{-1}, []modelStep{{}}
	trail := func(id int32, last modelStep) string {
		var out []string
		for s := last; ; id, s = parent[id], steps[id] {
			out = append(out, fmt.Sprint(verbs[s.verb], " ", s.a, " ", s.b))
			if id <= 0 {
				break
			}
		}
		slices.Reverse(out)
		return strings.Join(out, "; ")
	}
	var seen stateSet
	seen.add(key(&start))
	var cur int32 // the state being expanded
	var next []visit
	emit := func(how modelStep, st *S, ok bool, err error) error {
		if err == nil && ok {
			err = check(st)
		}
		if err != nil {
			return fmt.Errorf("%v after %s", err, trail(cur, how))
		}
		if !ok || !seen.add(key(st)) {
			return nil // out of the model's bounds, or seen
		}
		if seen.n > exploreLimit {
			return fmt.Errorf("more than %d states", exploreLimit)
		}
		parent, steps = append(parent, cur), append(steps, how)
		next = append(next, visit{*st, int32(len(parent) - 1)})
		return nil
	}
	for level := []visit{{start, 0}}; len(level) > 0; level, next = next, level[:0] {
		for k := range level {
			cur = level[k].id
			if err := expand(&level[k].st, emit); err != nil {
				return seen.n, err
			}
		}
	}
	return seen.n, nil
}

// cmpInts compares two tuples given interleaved: a0, b0, a1, b1, ...
func cmpInts(v ...int) int {
	for k := 0; k+1 < len(v); k += 2 {
		if v[k] != v[k+1] {
			return v[k] - v[k+1]
		}
	}
	return 0
}
