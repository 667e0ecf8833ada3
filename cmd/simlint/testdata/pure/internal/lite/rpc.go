package lite

// fn embeds a pure type; its own fields are not pure.
type fn struct {
	*pool
	r     ring
	calls int
}

// Export keeps the package imported from the fixture's command.
func Export() int {
	f := fn{pool: &pool{}, r: ring{log: map[int]int{}}}
	f.calls++
	f.r.advance(1)
	f.arrive()
	n := f.r.head + f.coming + len(f.r.log)
	f.r.head = 2        // BAD
	f.r.head += 3       // BAD
	(f.r.log)[4] = 5    // BAD
	f.coming--          // BAD
	f.pool.coming = n   // BAD
	f.r = ring{head: n} // a whole value of a field that is not pure
	var q sendq
	q.take()
	o := owners{moves: map[int]int{}}
	o.moves[1] = 2 // BAD
	return n + q.slots
}
