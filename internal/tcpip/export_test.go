package tcpip

import "lite/internal/simtime"

// Close shuts the listener down; pending Accepts fail.
func (l *Listener) Close(e *simtime.Env) {
	l.closed = true
	l.cond.Broadcast(e)
}
