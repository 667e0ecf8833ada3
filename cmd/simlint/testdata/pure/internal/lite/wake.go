package lite

import "fixture/internal/simtime" // BAD

// pool is a pure type embedded in another file's type.
type pool struct{ coming int }

func (p *pool) arrive() { p.coming++ }

var _ simtime.Time
