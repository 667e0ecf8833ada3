package lite

import "slices"

// The server side of retry deduplication: each srvRing keeps a window
// of the sequence numbers its client's retried calls carried (see
// retryStamp and dedupAnswer).

// bootKnown reports whether the given boot stamp's dedup history is
// held by this ring: its own incarnation, or one it adopted through
// migration.
func (r *srvRing) bootKnown(boot uint64) bool {
	return boot == r.boot || slices.Contains(r.adoptedBoots, boot)
}

// dedupWindow bounds the per-(client, function) duplicate-suppression
// window. A client retries one call at a time with bounded attempts,
// so a handful of entries per binding is ample; the cap only bounds
// memory against pathological clients.
const dedupWindow = 64

// dedupEntry is one remembered call in a srvRing's window.
type dedupEntry struct {
	seq   uint64
	call  *Call // in-flight call, so a duplicate can redirect its reply
	done  bool
	reply []byte // cached output once replied
}

// dedupLog holds dedup entries in the order they were added, in a
// circular buffer whose size is a power of two. A log can outgrow
// dedupWindow: a migration ships a client's completed entries whole,
// and a window merged from two drains can hold up to twice the cap.
type dedupLog struct {
	buf  []*dedupEntry
	head int // buf index of the oldest entry
	n    int
	// maxSeq is the largest seq ever added: a call numbered above it,
	// as every first attempt is, misses without a scan.
	maxSeq uint64
}

// at returns the k-th oldest entry.
func (l *dedupLog) at(k int) *dedupEntry { return l.buf[(l.head+k)&(len(l.buf)-1)] }

// add appends e as the newest entry.
func (l *dedupLog) add(e *dedupEntry) {
	if l.n == len(l.buf) {
		buf := make([]*dedupEntry, max(8, 2*len(l.buf)))
		for k := range l.n {
			buf[k] = l.at(k)
		}
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
	l.maxSeq = max(l.maxSeq, e.seq)
}

// dropOldest removes the oldest entry.
func (l *dedupLog) dropOldest() {
	l.buf[l.head] = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// find returns the newest entry for seq, or nil.
func (l *dedupLog) find(seq uint64) *dedupEntry {
	if seq > l.maxSeq {
		return nil
	}
	for k := l.n - 1; k >= 0; k-- {
		if e := l.at(k); e.seq == seq {
			return e
		}
	}
	return nil
}

// dedupLookup returns the window entry for seq, if present.
func (r *srvRing) dedupLookup(seq uint64) *dedupEntry { return r.dedup.find(seq) }

// dedupInsert records a freshly admitted call, evicting the oldest
// entry once the window is at its cap.
func (r *srvRing) dedupInsert(e *dedupEntry) {
	if r.dedup.n >= dedupWindow {
		r.dedup.dropOldest()
	}
	r.dedup.add(e)
}

// remember inserts a sequenced call into the ring's dedup window, so a
// retry of it is answered from the window instead of run again.
func (r *srvRing) remember(seq uint64, call *Call) {
	if seq == 0 {
		return
	}
	e := &dedupEntry{seq: seq, call: call}
	call.ded = e
	r.dedupInsert(e)
}
