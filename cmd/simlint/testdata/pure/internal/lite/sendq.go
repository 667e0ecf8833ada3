package lite

type sendq struct{ slots int }

func (q *sendq) take() { q.slots-- }
