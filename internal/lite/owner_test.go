package lite

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"lite/internal/allocbudget"
	"lite/internal/detrand"
)

// forget drops the view's record of src's move of fn, as on a node that
// missed the broadcast.
func (v *ownerView) forget(src, fn int) { delete(v.moved, migKey{src, fn}) }

// TestOwnershipModel drives ownerTable and ownerView through every
// interleaving of three nodes (node 0 runs the manager) by
// breadth-first search over hashed states (explore). A service is a
// function homed at a node: one service, or two with their own
// function ids, or two sharing one id as kvstore shards do. Drains
// start at any node the function may be drained from, up to a bound,
// two in flight at once; each is prepared, fenced, transferred and
// committed in separate steps whose replies may be lost, and the
// source's application may fail to hand over its state. One node
// crashes at any step, the manager's tables surviving its restart; the
// manager declares the dead and handles rejoins; membership broadcasts
// arrive in any order (two in flight per node, the oldest dropped when
// a third comes), anti-entropy resends the view, and clients learn
// moves from redirects. Every reachable state keeps four laws:
//
//   - at most one node that a service's callers may reach — its home,
//     or a node a commit moved the function to from one of those —
//     executes new calls: it is up, serves the function, and neither
//     bounces nor fences it;
//   - the manager's table is acyclic, and a commit names only a node
//     holding the function's state, unless the manager has not yet
//     learned that the node crashed;
//   - an acknowledged commit is in the manager's table until a commit
//     into the node supersedes it;
//   - redirects among nodes holding the latest view never cycle.
func TestOwnershipModel(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	for _, m := range ownModels {
		n, err := m.explore()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		t.Logf("%s: %d states", m.name, n)
	}
}

var ownModels = []ownModel{
	{name: "one function", svcs: []ownSvc{{1, 0}}, drains: 3},
	{name: "two functions", svcs: []ownSvc{{1, 0}, {2, 1}}, drains: 2},
	{name: "one function at two homes", svcs: []ownSvc{{1, 0}, {2, 0}}, drains: 2},
}

const (
	ownNodes = 3
	ownInbox = 2 // broadcasts in flight to one node
	ownFns   = 2
)

// ownSvc is a function fn homed at node home.
type ownSvc struct{ home, fn int }

// ownModel bounds one search.
type ownModel struct {
	name   string
	svcs   []ownSvc
	drains int8 // drains started, at most
}

// ownSnap is a membership broadcast; its moves are never written.
type ownSnap struct {
	epoch uint64
	moves []moveRec
}

const (
	drainIdle = iota
	drainFenced
	drainCommitting
)

// ownNode is one node: its view, the epoch of its last broadcast, the
// functions whose server threads run here, the broadcasts in flight to
// it (sorted by epoch), and its drain.
type ownNode struct {
	view   ownerView
	epoch  uint64
	up     bool
	joined bool // false from a restart until the manager handles its join
	served uint8
	inbox  []ownSnap
	phase  uint8
	fn, to int
}

type ownState struct {
	n       [ownNodes]ownNode
	table   ownerTable
	epoch   uint64
	dead    uint8
	routed  [2]uint8               // per service: the nodes its callers may reach
	acked   [ownNodes][ownFns]int8 // target of a node's acknowledged commit of fn, or -1
	drains  int8
	crashes int8
	// mine marks the views (bits 0-2), inboxes (bits 3-5) and table
	// (bit 7) this copy owns; it shares the others with the state it
	// came from.
	mine uint8
}

// node returns node k with its view ready for writing.
func (st *ownState) node(k int) *ownNode {
	nd := &st.n[k]
	if st.mine&(1<<k) == 0 {
		st.mine |= 1 << k
		v := &nd.view
		v.moved, v.fenced, v.unseen = maps.Clone(v.moved), maps.Clone(v.fenced), maps.Clone(v.unseen)
	}
	return nd
}

// box returns node k's inbox for writing.
func (st *ownState) box(k int) *[]ownSnap {
	nd := &st.n[k]
	if st.mine&(8<<k) == 0 {
		st.mine |= 8 << k
		nd.inbox = slices.Clone(nd.inbox)
	}
	return &nd.inbox
}

// tab returns the manager's table for writing.
func (st *ownState) tab() *ownerTable {
	if st.mine&(1<<7) == 0 {
		st.mine |= 1 << 7
		st.table.moves, st.table.handoff = maps.Clone(st.table.moves), maps.Clone(st.table.handoff)
	}
	return &st.table
}

// broadcast bumps the epoch and ships the table: the manager installs it
// at once, and every other live node not declared dead gets it in
// flight.
func (st *ownState) broadcast() {
	st.epoch++
	s := ownSnap{st.epoch, st.table.list()}
	for k := range st.n {
		switch {
		case !st.n[k].up || st.dead&(1<<k) != 0:
		case k == managerNode:
			nd := st.node(k)
			nd.epoch = s.epoch
			nd.view.install(s.moves)
		default:
			box := st.box(k)
			if len(*box) == ownInbox {
				*box = (*box)[1:]
			}
			*box = append(*box, s)
		}
	}
}

// abort unwinds node s's drain: the fence lifts, and the manager clears
// the handoff record if it is up.
func (st *ownState) abort(s int) {
	nd := st.node(s)
	nd.view.abort(nd.fn)
	if st.n[managerNode].up {
		st.tab().abort(s, nd.fn)
	}
	nd.phase = drainIdle
}

// check returns the first law st breaks.
func (m *ownModel) check(st *ownState) error {
	for i, sv := range m.svcs {
		exec := 0
		for k := range st.n {
			nd := &st.n[k]
			if st.routed[i]&(1<<k) == 0 || !nd.up || nd.served&(1<<sv.fn) == 0 || nd.view.holds(sv.fn) {
				continue
			}
			if _, gone := nd.view.bounce(sv.fn); !gone {
				exec |= 1 << k
			}
		}
		if exec&(exec-1) != 0 {
			return fmt.Errorf("%v: nodes %03b all execute new calls", sv, exec)
		}
	}
	for k := range st.table.moves {
		seen, at := 0, k.src
		for {
			to, ok := st.table.moves[migKey{at, k.fn}]
			if !ok {
				break
			}
			if seen&(1<<to) != 0 {
				return fmt.Errorf("manager's table %v has a cycle", st.table.moves)
			}
			seen, at = seen|1<<to, to
		}
	}
	for k := range st.n {
		for fn := range ownFns {
			if to := st.acked[k][fn]; to >= 0 {
				if at, ok := st.table.moves[migKey{k, fn}]; !ok || at != int(to) {
					return fmt.Errorf("node %d's acknowledged move of fn %d to %d is not in the manager's table %v", k, fn, to, st.table.moves)
				}
			}
			seen, at := 0, k
			for {
				hop := &st.n[at]
				to, ok := hop.view.bounce(fn)
				if !hop.up || hop.epoch != st.epoch || !ok {
					break
				}
				if seen&(1<<to) != 0 {
					return fmt.Errorf("nodes holding the latest view redirect fn %d in a cycle through node %d", fn, to)
				}
				seen, at = seen|1<<to, to
			}
		}
	}
	return nil
}

// key canonicalizes st and hashes it. Epochs are only ever compared,
// so their ranks stand for them. Of a view's moves only the node's own
// count: a broadcast replaces the others, and no step or law reads
// them.
func (m *ownModel) key(st *ownState) uint64 {
	var epochs [ownNodes*(ownInbox+1) + 1]uint64
	ne := 0
	for k := range st.n {
		epochs[ne] = st.n[k].epoch
		ne++
		for _, s := range st.n[k].inbox {
			epochs[ne] = s.epoch
			ne++
		}
	}
	epochs[ne] = st.epoch
	ne++
	slices.Sort(epochs[:ne])
	rank := func(e uint64) int64 {
		r, _ := slices.BinarySearch(epochs[:ne], e)
		return int64(r)
	}
	edge := func(mv map[migKey]int, src, fn int) int64 {
		if to, ok := mv[migKey{src, fn}]; ok {
			return int64(to)
		}
		return -1
	}
	h := stateHash(14695981039346656037)
	for k := range st.n {
		nd := &st.n[k]
		v := &nd.view
		h.add(rank(nd.epoch), b2i(nd.up), b2i(nd.joined), int64(nd.served), int64(nd.phase), b2i(v.blind))
		if nd.phase != drainIdle {
			h.add(int64(nd.fn), int64(nd.to))
		}
		for fn := range ownFns {
			unseen, ok := v.unseen[fn]
			if !ok {
				unseen = -1
			}
			h.add(b2i(v.fenced[fn]), int64(unseen), edge(v.moved, k, fn), int64(st.acked[k][fn]))
		}
		h.add(int64(len(nd.inbox)))
		for _, s := range nd.inbox {
			h.add(rank(s.epoch), int64(len(s.moves)))
			for _, mv := range s.moves {
				h.add(int64(mv.src<<8 | mv.fn<<4 | mv.dst))
			}
		}
	}
	h.add(mapSum(st.table.moves), mapSum(st.table.handoff))
	h.add(int64(st.routed[0]), int64(st.routed[1]), rank(st.epoch), int64(st.dead), int64(st.drains), int64(st.crashes))
	return uint64(h)
}

// mapSum hashes a small map independently of its order.
func mapSum(m map[migKey]int) int64 {
	var sum uint64
	for k, v := range m {
		sum += detrand.Mix64(uint64(k.src<<16 | k.fn<<8 | v))
	}
	return int64(sum)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

var ownVerbs = []string{
	"prepare (src, fn<<4|target)", "prepare, reply lost", "appState fails at", "transfer from",
	"transfer, reply lost, from", "commit from", "commit, reply lost, from", "deliver to (node, epoch)",
	"anti-entropy to", "crash", "declare dead", "restart", "join", "learn (node, from<<4|fn)",
}

func (m *ownModel) explore() (int, error) {
	var start ownState
	for k := range start.n {
		start.n[k] = ownNode{view: newOwnerView(k), up: true, joined: true}
		for fn := range ownFns {
			start.acked[k][fn] = -1
		}
	}
	for i, sv := range m.svcs {
		start.n[sv.home].served |= 1 << sv.fn
		start.routed[i] = 1 << sv.home
	}
	start.table = newOwnerTable()
	expand := func(cur *ownState, emit func(modelStep, *ownState, bool, error) error) error {
		step := func(verb, a, b int, f func(*ownState) (bool, error)) error {
			next := *cur
			next.mine = 0
			ok, err := f(&next)
			return emit(modelStep{uint8(verb), int16(a), int16(b)}, &next, ok, err)
		}
		mgr := cur.n[managerNode].up
		active := 0
		for k := range cur.n {
			if cur.n[k].phase != drainIdle {
				active++
			}
		}
		for s := range cur.n {
			nd := &cur.n[s]
			for fn := 0; fn < ownFns && nd.up && nd.phase == drainIdle && cur.drains < m.drains && active < 2; fn++ {
				if nd.served&(1<<fn) == 0 || nd.view.drainable(fn) != nil || !mgr || cur.dead&(1<<s) != 0 {
					continue
				}
				for t := range cur.n {
					if t == s || cur.dead&(1<<t) != 0 {
						continue
					}
					for lost := 0; lost < 2; lost++ {
						err := step(lost, s, fn<<4|t, func(st *ownState) (bool, error) {
							st.drains++
							if st.tab().prepare(s, fn, t) != nil {
								return false, nil // refused: nothing changed
							}
							if lost == 0 {
								nd := st.node(s)
								nd.view.fence(fn)
								nd.phase, nd.fn, nd.to = drainFenced, fn, t
							}
							return true, nil
						})
						if err != nil {
							return err
						}
					}
				}
			}
			switch {
			case !nd.up:
			case nd.phase == drainFenced:
				if err := step(2, s, 0, func(st *ownState) (bool, error) {
					st.abort(s)
					return true, nil
				}); err != nil {
					return err
				}
				for lost := 0; lost < 2; lost++ {
					if err := step(3+lost, s, 0, func(st *ownState) (bool, error) {
						fn, t := st.n[s].fn, st.n[s].to
						if tgt := &st.n[t]; !tgt.up || !tgt.view.adopt(fn) {
							st.abort(s)
							return true, nil
						}
						st.n[t].served |= 1 << fn
						if lost == 1 {
							st.abort(s)
						} else {
							st.n[s].phase = drainCommitting
						}
						return true, nil
					}); err != nil {
						return err
					}
				}
			case nd.phase == drainCommitting:
				for lost := 0; lost < 2; lost++ {
					if err := step(5+lost, s, 0, func(st *ownState) (bool, error) {
						fn, t := st.n[s].fn, st.n[s].to
						done := func() {
							src := st.node(s)
							src.view.commit(fn, t)
							src.phase = drainIdle
							st.acked[s][fn] = int8(t)
						}
						if st.n[s].view.committed(fn, t) {
							done()
							return lost == 0, nil
						}
						if !st.n[managerNode].up {
							return false, nil
						}
						ok, fresh := st.tab().commit(s, fn, t)
						if !ok {
							st.abort(s)
							return true, nil
						}
						if fresh {
							tgt := &st.n[t]
							if tgt.served&(1<<fn) == 0 && (st.dead&(1<<t) != 0 || tgt.up && tgt.joined) {
								return false, fmt.Errorf("commit hands fn %d to node %d, whose crash the manager knows", fn, t)
							}
							for i, sv := range m.svcs {
								if sv.fn == fn && st.routed[i]&(1<<s) != 0 {
									st.routed[i] |= 1 << t
								}
							}
							st.acked[t][fn] = -1 // superseded
							st.broadcast()
						}
						if lost == 0 {
							done()
						}
						return fresh || lost == 0, nil
					}); err != nil {
						return err
					}
				}
			}
		}
		for k := range cur.n {
			nd := &cur.n[k]
			if !nd.up {
				continue
			}
			for j := range nd.inbox {
				if err := step(7, k, int(nd.inbox[j].epoch), func(st *ownState) (bool, error) {
					box := st.box(k)
					s := (*box)[j]
					*box = slices.Delete(*box, j, j+1)
					if s.epoch > st.n[k].epoch {
						nd := st.node(k)
						nd.epoch = s.epoch
						nd.view.install(s.moves)
					}
					return true, nil
				}); err != nil {
					return err
				}
			}
			if mgr && k != managerNode && nd.epoch < cur.epoch && len(nd.inbox) == 0 && cur.dead&(1<<k) == 0 {
				if err := step(8, k, 0, func(st *ownState) (bool, error) {
					*st.box(k) = []ownSnap{{st.epoch, st.table.list()}}
					return true, nil
				}); err != nil {
					return err
				}
			}
			for fn := range ownFns {
				// A client learns k's redirect. Only one naming the client
				// itself could touch its own moves; any other changes just
				// the moves a broadcast replaces.
				if c, ok := nd.view.bounce(fn); ok && c != k && cur.n[c].up {
					if err := step(13, c, k<<4|fn, func(st *ownState) (bool, error) {
						st.node(c).view.learn(k, fn, c)
						return true, nil
					}); err != nil {
						return err
					}
				}
			}
		}
		for k := range cur.n {
			nd := &cur.n[k]
			var err error
			switch {
			case nd.up && cur.crashes == 0:
				err = step(9, k, 0, func(st *ownState) (bool, error) {
					st.crashes++
					st.mine |= 9 << k // both replaced below
					nd := &st.n[k]
					nd.view.reset()
					nd.up, nd.joined, nd.served, nd.inbox, nd.phase = false, false, 0, nil, drainIdle
					return true, nil
				})
			case nd.up && !nd.joined && mgr:
				err = step(12, k, 0, func(st *ownState) (bool, error) {
					st.n[k].joined = true
					st.dead &^= 1 << k
					st.tab().purge(k)
					st.broadcast()
					return true, nil
				})
			case !nd.up:
				if mgr && cur.dead&(1<<k) == 0 {
					if err := step(10, k, 0, func(st *ownState) (bool, error) {
						st.dead |= 1 << k
						st.tab().purge(k)
						st.broadcast()
						return true, nil
					}); err != nil {
						return err
					}
				}
				err = step(11, k, 0, func(st *ownState) (bool, error) {
					nd := &st.n[k]
					nd.up = true
					if k == managerNode {
						nd.joined = true
						st.tab().purge(k)
						st.broadcast()
					}
					return true, nil
				})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return explore(start, ownVerbs, m.key, m.check, expand)
}
