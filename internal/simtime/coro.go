//go:build go1.23

package simtime

import "iter"

// newWorker returns a worker whose coroutine runs e.work. Nothing runs
// until the worker is first resumed.
func (e *Env) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(*worker) bool) {
		w.yield = yield
		e.work(w)
	})
	return w
}
