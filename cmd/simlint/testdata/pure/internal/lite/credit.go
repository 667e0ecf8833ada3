package lite

// ring is a pure type: only its own file writes its fields.
type ring struct {
	head int
	log  map[int]int
}

func (r *ring) advance(n int) {
	r.head += n
	r.log[r.head] = n
}
