package simtime

// Yield reschedules the process at the current time, letting any other
// process with a pending event at this instant run first.
func (p *Proc) Yield() {
	gen := p.prepareWait()
	p.env.wakeAt(p.env.now, p, gen, WakeTimer)
	p.park()
}

// FreeAt returns the instant the facility next becomes idle after all
// current reservations.
func (s *Server) FreeAt() Time {
	if len(s.busy) == 0 {
		return 0
	}
	return s.busy[len(s.busy)-1].end
}
