package lite

import (
	"cmp"
	"sort"
)

// Function ownership: which node executes a function's calls as it
// live-migrates (migrate.go). ownerTable, the manager's half, and
// ownerView, each node's, are the only writers of this state and do no
// I/O. TestOwnershipModel checks every interleaving of three nodes,
// drains, crashes and reordered broadcasts against four laws: at most
// one node a function's callers reach executes its new calls; the
// manager's table is acyclic and hands a function only to a node
// holding its state; an acknowledged commit stays in the table; and
// nodes holding the latest view never redirect in a cycle.

// migKey identifies one move record: function fn moved away from node
// src. Keyed by (src, fn), not fn alone — function IDs are commonly
// shared by many servers (every kvstore shard server registers the
// same fn), and only the one that migrated must bounce.
type migKey struct {
	src int
	fn  int
}

// moveRec is one committed move in a membership broadcast.
type moveRec struct {
	src, fn, dst int
}

// link records the committed move (src, fn) -> dst in moves and drops
// dst's own edge for fn, which the move superseded: dst holds fn now,
// and the manager's table stays acyclic. keep names a node whose edge
// stays: a view's own moves change only by its commits and broadcasts
// (a view passes its node; the manager, -1).
func link(moves map[migKey]int, src, fn, dst, keep int) {
	moves[migKey{src, fn}] = dst
	if dst != keep {
		delete(moves, migKey{dst, fn})
	}
}

// ownerTable is the manager's half, surviving its restarts on the HA
// pair: committed moves ({src, fn} -> new home) and handoff records,
// prepared but uncommitted. A handoff record is routing-inert; it only
// gates the commit, so a crash anywhere resolves to the moves table.
type ownerTable struct {
	moves   map[migKey]int
	handoff map[migKey]int
}

func newOwnerTable() ownerTable {
	return ownerTable{moves: make(map[migKey]int), handoff: make(map[migKey]int)}
}

// follow walks moves from dst to fn's current home, bounded against
// cycles in a stale view.
func follow(moves map[migKey]int, dst, fn int) int {
	for hops := 0; hops <= len(moves); hops++ {
		to, ok := moves[migKey{dst, fn}]
		if !ok {
			return dst
		}
		dst = to
	}
	return dst
}

// routes reports whether a move of src's fn into target keeps every
// route: target never let fn go, or src is where it went. The move
// retires the target's edge (link), which from anyone but the owner at
// the end of the target's route would send the target's stale callers
// to a node without their state.
func (t *ownerTable) routes(src, fn, target int) bool {
	_, left := t.moves[migKey{target, fn}]
	return !left || follow(t.moves, target, fn) == src
}

// prepare records the handoff of src's fn to target. It refuses with
// ErrMoved a move that would not keep every route, and with
// ErrMigrating while another source's handoff of fn to target is in
// flight: the loser retries once the winner commits.
func (t *ownerTable) prepare(src, fn, target int) error {
	if !t.routes(src, fn, target) {
		return ErrMoved
	}
	for k, to := range t.handoff {
		if k.fn == fn && to == target && k.src != src {
			return ErrMigrating
		}
	}
	t.handoff[migKey{src, fn}] = target
	return nil
}

// commit installs the prepared move of src's fn to target. ok reports
// that the move is committed; fresh, that this call committed it (a
// re-commit whose first reply was lost is ok but not fresh). It
// refuses a move with no matching handoff record, and one that no
// longer keeps every route: a commit into target may have landed since
// the prepare.
func (t *ownerTable) commit(src, fn, target int) (ok, fresh bool) {
	k := migKey{src, fn}
	if to, done := t.moves[k]; done && to == target {
		return true, false
	}
	if to, prepared := t.handoff[k]; !prepared || to != target || !t.routes(src, fn, target) {
		return false, false
	}
	delete(t.handoff, k)
	link(t.moves, src, fn, target, -1)
	return true, true
}

// abort clears src's handoff record for fn.
func (t *ownerTable) abort(src, fn int) { delete(t.handoff, migKey{src, fn}) }

// purge drops the handoff records touching node, as source or target,
// when it dies or rejoins: they can no longer commit, so they must not
// gate a future handoff.
func (t *ownerTable) purge(node int) {
	for k, to := range t.handoff {
		if k.src == node || to == node {
			delete(t.handoff, k)
		}
	}
}

// list returns the committed moves in (src, fn) order for a broadcast.
func (t *ownerTable) list() []moveRec {
	out := make([]moveRec, 0, len(t.moves))
	for k, dst := range t.moves {
		out = append(out, moveRec{src: k.src, fn: k.fn, dst: dst})
	}
	sort.Slice(out, func(a, b int) bool {
		return cmp.Or(cmp.Compare(out[a].src, out[b].src), cmp.Compare(out[a].fn, out[b].fn)) < 0
	})
	return out
}

// ownerView is one node's half: the moves it routes by, learned from
// broadcasts and MovedError redirects; its own, which it bounces; and
// the functions it holds behind a migration fence.
//
// The migrate-back rule: a node's own moves follow the manager's table,
// except one it committed that no broadcast has shown yet (unseen),
// which stands against every broadcast that lacks it, as the broadcast
// may predate the commit. So a node that moved fn away bounces it until
// a broadcast shows the move that brought fn back. Adoption alone does
// not end the bounce: the move back may still abort, and the node would
// then execute stale callers' calls next to the owner. A node refuses
// to adopt fn while its own move of fn is unseen, for it would keep
// that move against the broadcast showing fn's return; and while blind
// (restarted, no broadcast since), for it would not know that it moved
// fn away and would execute stale callers' calls from the adoption on.
type ownerView struct {
	self   int
	moved  map[migKey]int // routing view; entries keyed self are this node's own moves
	fenced map[int]bool   // functions held behind a migration fence
	unseen map[int]int    // fn -> new home, for own moves no broadcast has shown yet
	blind  bool
}

func newOwnerView(self int) ownerView {
	return ownerView{self: self, moved: make(map[migKey]int), fenced: make(map[int]bool), unseen: make(map[int]int)}
}

// reset forgets everything at a crash; the next broadcast restores the
// view.
func (v *ownerView) reset() {
	*v = newOwnerView(v.self)
	v.blind = true
}

// bounce is handleRPCReq's first question: has fn moved away from this
// node, and to where.
func (v *ownerView) bounce(fn int) (int, bool) {
	to, ok := v.moved[migKey{v.self, fn}]
	return to, ok
}

// holds is handleRPCReq's second: is fn fenced here.
func (v *ownerView) holds(fn int) bool { return v.fenced[fn] }

// drainable reports why fn may not start migrating away, if it may not.
func (v *ownerView) drainable(fn int) error {
	if v.fenced[fn] {
		return ErrMigrating
	}
	if _, gone := v.bounce(fn); gone {
		return ErrMoved
	}
	return nil
}

// fence holds fn's new calls once the manager has prepared its handoff.
func (v *ownerView) fence(fn int) { v.fenced[fn] = true }

// abort lifts fn's fence: the node still owns it.
func (v *ownerView) abort(fn int) { delete(v.fenced, fn) }

// committed reports whether the view already shows this node's move of
// fn to target (a broadcast overtook the commit's reply).
func (v *ownerView) committed(fn, target int) bool {
	to, ok := v.bounce(fn)
	return ok && to == target
}

// commit records this node's acknowledged move of fn to target.
func (v *ownerView) commit(fn, target int) {
	if !v.committed(fn, target) {
		v.unseen[fn] = target
	}
	delete(v.fenced, fn)
	link(v.moved, v.self, fn, target, v.self)
}

// adopt admits fn's transfer to this node, or refuses it. The own move
// of fn it may supersede stands until a broadcast shows the commit.
func (v *ownerView) adopt(fn int) bool {
	_, unseen := v.unseen[fn]
	return !v.blind && !unseen && !v.fenced[fn]
}

// learn records a move a MovedError reported.
func (v *ownerView) learn(from, fn, to int) { link(v.moved, from, fn, to, v.self) }

// install replaces the view with a newer broadcast's moves, keeping the
// own moves it does not show yet.
func (v *ownerView) install(moves []moveRec) {
	next := make(map[migKey]int, len(moves))
	for _, mv := range moves {
		next[migKey{mv.src, mv.fn}] = mv.dst
	}
	for fn, to := range v.unseen {
		if shown, ok := next[migKey{v.self, fn}]; ok && shown == to {
			delete(v.unseen, fn)
		} else {
			link(next, v.self, fn, to, v.self)
		}
	}
	v.moved = next
	v.blind = false
}

// resolve follows the view's moves from dst to fn's current home.
func (v *ownerView) resolve(dst, fn int) int { return follow(v.moved, dst, fn) }
