// One-sided GET path: a client-traversed index that makes stable reads
// cost zero server CPU.
//
// A one-sided store (StartOneSided) publishes, per server, two
// kernel-public LMRs:
//
//   - the index: a 32-byte header [fence][nbuckets][slots/bucket][rsvd]
//     followed by nbuckets buckets of 4 slots, each slot 32 bytes
//     {version, tag, heap offset, record length}. Two-choice hashing
//     (h mod nb, h>>32 mod nb), no cuckoo kicks: bucket overflow
//     triggers a resize into a fresh LMR generation.
//   - the heap: a bump-allocated arena of write-once records
//     [klen 2][key][value]. Records are never overwritten in place, so
//     a heap read can never be torn — the slot write is the single
//     commit point of every mutation.
//
// Clients resolve a GET in two vectored LT_reads (lite.Client.ReadV),
// each one WR chain behind one doorbell: both candidate buckets, then
// the record followed by the slot's 8-byte version word. RC executes a
// chain in order at the responder, so a version word equal to the one
// the bucket read saw proves the slot did not change across the record
// read: a seqlock validated by an ordered read, no atomic. Odd versions
// mark mutations in progress; a miss is linearized by reading the fence
// word after the buckets. Torn reads retry; a fence change, revoked
// handle or persistent conflict falls back to the RPC path ("get") and,
// for the index location, re-attaches.
//
// Resize and shard drain invalidate in-flight readers by writing the
// fence odd and poisoning every slot version (one LT_memset of 0xff:
// all-ones is odd), then freeing the old generation's LMRs. A reader
// holding the old attachment reads a version or fence it did not expect
// — or fails its read outright — and re-attaches.
//
// Tenant keys are never indexed: the index and heap are kernel-public
// (tenant 0), and publishing tenant data there would bypass the lite
// layer's namespace isolation. Tenant GETs use the RPC path.
package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"lite/internal/lite"
	"lite/internal/simtime"
)

const (
	idxHdr         = 32 // [fence 8][nbuckets 8][slotsPer 8][reserved 8]
	slotBytes      = 32 // [version 8][tag 8][heap off 8][record len 8]
	slotsPerBucket = 4
	bucketBytes    = slotBytes * slotsPerBucket
	initialBuckets = 16
	initialHeap    = 1 << 14
)

// Direct-path control-flow sentinels (internal).
var (
	errTorn  = errors.New("kvstore: torn one-sided read")    // retry, same attachment
	errStale = errors.New("kvstore: stale index attachment") // re-attach, then retry
	errNoIdx = errors.New("kvstore: server publishes no index")
)

// hashKey64 is FNV-1a (64-bit), the one-sided index hash. The low and
// high halves pick the two candidate buckets; the whole hash is the
// slot tag.
func hashKey64(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// idxEntry locates one live key in the index.
type idxEntry struct {
	slot int64 // global slot number: bucket*slotsPerBucket + i
	tag  uint64
	pos  int64 // heap offset of the record
	rlen int64 // record length
}

// idxState is one server incarnation's published index: the LMR pair,
// the authoritative Go-side mirror, and a virtual-time mutex
// serializing the server's own mutators (several RPC threads share one
// incarnation; readers need no lock — that is the point).
type idxState struct {
	busy bool
	cond simtime.Cond

	inited   bool
	seq      uint64 // LMR generation counter; also the fence generation
	lh       lite.LH
	heapLH   lite.LH
	idxName  string
	heapName string
	nb       int64
	heapCap  int64
	heapOff  int64

	slots map[string]*idxEntry
	occ   []string // slot number -> key ("" = free)
	vers  []uint64 // slot number -> committed (even) version
}

func (ix *idxState) lock(p *simtime.Proc) {
	for ix.busy {
		ix.cond.Wait(p)
	}
	ix.busy = true
}

func (ix *idxState) unlock(p *simtime.Proc) {
	ix.busy = false
	ix.cond.Broadcast(p.Env())
}

func (ix *idxState) fence() uint64 { return ix.seq << 1 }

func slotOff(slot int64) int64 { return idxHdr + slot*slotBytes }

// buckets returns the two candidate buckets of a hash (equal when the
// two halves collide).
func buckets(h uint64, nb int64) (int64, int64) {
	return int64(h % uint64(nb)), int64((h >> 32) % uint64(nb))
}

// findFree returns a free slot in h's two candidate buckets of an
// nb-bucket occupancy table, or -1.
func findFree(occ []string, nb int64, h uint64) int64 {
	b1, b2 := buckets(h, nb)
	for _, b := range []int64{b1, b2} {
		for i := int64(0); i < slotsPerBucket; i++ {
			if s := b*slotsPerBucket + i; occ[s] == "" {
				return s
			}
		}
	}
	return -1
}

// liveRec is one key-value pair during a rebuild.
type liveRec struct {
	key string
	val []byte
}

// idxBuild allocates a fresh LMR generation sized for recs (at least
// minNB buckets and minHeap heap bytes), writes the complete images,
// and installs the new state in ix. recs must be sorted by key.
func (srv *server) idxBuild(p *simtime.Proc, c *lite.Client, recs []liveRec, minNB, minHeap int64) error {
	nb := minNB
	var heapNeed int64
	for _, r := range recs {
		heapNeed += 2 + int64(len(r.key)) + int64(len(r.val))
	}
	if heapNeed > minHeap {
		minHeap = heapNeed
	}
	ix := srv.idx
placement:
	for {
		occ := make([]string, nb*slotsPerBucket)
		slots := make(map[string]*idxEntry, len(recs))
		idxImg := make([]byte, idxHdr+nb*bucketBytes)
		heapImg := make([]byte, 0, minHeap)
		for _, r := range recs {
			h := hashKey64(r.key)
			slot := findFree(occ, nb, h)
			if slot < 0 {
				nb *= 2
				continue placement
			}
			pos := int64(len(heapImg))
			rlen := int64(2 + len(r.key) + len(r.val))
			var kl [2]byte
			binary.LittleEndian.PutUint16(kl[:], uint16(len(r.key)))
			heapImg = append(heapImg, kl[:]...)
			heapImg = append(heapImg, r.key...)
			heapImg = append(heapImg, r.val...)
			occ[slot] = r.key
			slots[r.key] = &idxEntry{slot: slot, tag: h, pos: pos, rlen: rlen}
			so := slotOff(slot) - idxHdr
			img := idxImg[idxHdr+so:]
			binary.LittleEndian.PutUint64(img[0:], 2) // first committed version
			binary.LittleEndian.PutUint64(img[8:], h)
			binary.LittleEndian.PutUint64(img[16:], uint64(pos))
			binary.LittleEndian.PutUint64(img[24:], uint64(rlen))
		}
		heapCap := minHeap
		if int64(len(heapImg)) > heapCap {
			heapCap = int64(len(heapImg))
		}
		ix.seq++
		idxName := fmt.Sprintf("kvidx%d-%d-g%d-%d", srv.store.id, srv.node, srv.gen, ix.seq)
		heapName := fmt.Sprintf("kvheap%d-%d-g%d-%d", srv.store.id, srv.node, srv.gen, ix.seq)
		binary.LittleEndian.PutUint64(idxImg[0:], ix.seq<<1)
		binary.LittleEndian.PutUint64(idxImg[8:], uint64(nb))
		binary.LittleEndian.PutUint64(idxImg[16:], slotsPerBucket)
		// Readers only ever read: both LMRs map read-only.
		lh, err := c.Malloc(p, int64(len(idxImg)), idxName, lite.PermRead)
		if err != nil {
			ix.seq--
			return err
		}
		heapLH, err := c.Malloc(p, heapCap, heapName, lite.PermRead)
		if err == nil {
			if err = c.Write(p, lh, 0, idxImg); err == nil && len(heapImg) > 0 {
				err = c.Write(p, heapLH, 0, heapImg)
			}
			if err != nil {
				_ = c.Free(p, heapLH)
			}
		}
		if err != nil {
			_ = c.Free(p, lh)
			ix.seq--
			return err
		}
		vers := make([]uint64, nb*slotsPerBucket)
		for _, e := range slots {
			vers[e.slot] = 2
		}
		ix.inited = true
		ix.lh, ix.heapLH = lh, heapLH
		ix.idxName, ix.heapName = idxName, heapName
		ix.nb, ix.heapCap, ix.heapOff = nb, heapCap, int64(len(heapImg))
		ix.slots, ix.occ, ix.vers = slots, occ, vers
		return nil
	}
}

// idxPoison invalidates the current generation for every in-flight
// reader: fence odd, then every slot version odd (0xff bytes), then
// the LMRs are freed. Callers must hold the index lock (or have the
// server quiesced).
func (srv *server) idxPoison(p *simtime.Proc, c *lite.Client) {
	ix := srv.idx
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], ix.fence()|1)
	_ = c.Write(p, ix.lh, 0, b[:])
	_ = c.Memset(p, ix.lh, idxHdr, 0xff, ix.nb*bucketBytes)
	_ = c.Free(p, ix.lh)
	_ = c.Free(p, ix.heapLH)
	ix.inited = false
}

// idxResize rebuilds the index into a fresh generation with at least
// minNB buckets and minHeap heap bytes, invalidating the old one.
// Lock held by caller. The two announcements bracket the window a
// chaos harness crashes into.
func (srv *server) idxResize(p *simtime.Proc, c *lite.Client, minNB, minHeap int64) error {
	ix := srv.idx
	// Fence first: readers racing the rebuild fail validation from the
	// first instant state becomes inconsistent.
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], ix.fence()|1)
	if err := c.Write(p, ix.lh, 0, b[:]); err != nil {
		return err
	}
	srv.store.cls.Announce(p, "kvstore.resize.fence")
	keys := make([]string, 0, len(ix.slots))
	for k := range ix.slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]liveRec, 0, len(keys))
	for _, k := range keys {
		e := ix.slots[k]
		rec := make([]byte, e.rlen)
		if err := c.Read(p, ix.heapLH, e.pos, rec); err != nil {
			return err
		}
		kl := int(binary.LittleEndian.Uint16(rec))
		recs = append(recs, liveRec{key: k, val: rec[2+kl:]})
	}
	_ = c.Memset(p, ix.lh, idxHdr, 0xff, ix.nb*bucketBytes)
	oldIdx, oldHeap := ix.lh, ix.heapLH
	if err := srv.idxBuild(p, c, recs, minNB, minHeap); err != nil {
		return err
	}
	srv.store.cls.Announce(p, "kvstore.resize.publish")
	_ = c.Free(p, oldIdx)
	_ = c.Free(p, oldHeap)
	return nil
}

// idxEnsure builds the initial (empty) generation on first use. Lock
// held by caller.
func (srv *server) idxEnsure(p *simtime.Proc, c *lite.Client) error {
	if srv.idx.inited {
		return nil
	}
	return srv.idxBuild(p, c, nil, initialBuckets, initialHeap)
}

// idxPut publishes key=value into the one-sided index: seqlock odd
// version, write-once heap append, then the committing 32-byte slot
// write.
func (srv *server) idxPut(p *simtime.Proc, c *lite.Client, key string, value []byte) {
	ix := srv.idx
	ix.lock(p)
	defer ix.unlock(p)
	if err := srv.idxEnsure(p, c); err != nil {
		return
	}
	h := hashKey64(key)
	rlen := int64(2 + len(key) + len(value))
	var slot int64
	for {
		if ix.heapOff+rlen > ix.heapCap {
			if srv.idxResize(p, c, ix.nb, ix.heapCap*2+rlen) != nil {
				return
			}
			continue
		}
		if e := ix.slots[key]; e != nil {
			slot = e.slot
			break
		}
		if slot = findFree(ix.occ, ix.nb, h); slot >= 0 {
			break
		}
		if srv.idxResize(p, c, ix.nb*2, ix.heapCap) != nil {
			return
		}
	}
	var b [8]byte
	vOdd := ix.vers[slot] + 1
	binary.LittleEndian.PutUint64(b[:], vOdd)
	if c.Write(p, ix.lh, slotOff(slot), b[:]) != nil {
		return
	}
	rec := make([]byte, rlen)
	binary.LittleEndian.PutUint16(rec, uint16(len(key)))
	copy(rec[2:], key)
	copy(rec[2+len(key):], value)
	pos := ix.heapOff
	if c.Write(p, ix.heapLH, pos, rec) != nil {
		return
	}
	ix.heapOff += rlen
	var img [slotBytes]byte
	binary.LittleEndian.PutUint64(img[0:], vOdd+1)
	binary.LittleEndian.PutUint64(img[8:], h)
	binary.LittleEndian.PutUint64(img[16:], uint64(pos))
	binary.LittleEndian.PutUint64(img[24:], uint64(rlen))
	if c.Write(p, ix.lh, slotOff(slot), img[:]) != nil {
		return
	}
	ix.vers[slot] = vOdd + 1
	ix.occ[slot] = key
	ix.slots[key] = &idxEntry{slot: slot, tag: h, pos: pos, rlen: rlen}
}

// idxDelete unpublishes key (record length zero marks a free slot; the
// version keeps counting so readers of the old slot fail validation).
func (srv *server) idxDelete(p *simtime.Proc, c *lite.Client, key string) {
	ix := srv.idx
	ix.lock(p)
	defer ix.unlock(p)
	if !ix.inited {
		return
	}
	e := ix.slots[key]
	if e == nil {
		return
	}
	var b [8]byte
	vOdd := ix.vers[e.slot] + 1
	binary.LittleEndian.PutUint64(b[:], vOdd)
	if c.Write(p, ix.lh, slotOff(e.slot), b[:]) != nil {
		return
	}
	var img [slotBytes]byte
	binary.LittleEndian.PutUint64(img[0:], vOdd+1)
	if c.Write(p, ix.lh, slotOff(e.slot), img[:]) != nil {
		return
	}
	ix.vers[e.slot] = vOdd + 1
	ix.occ[e.slot] = ""
	delete(ix.slots, key)
}

// idxAdopt republishes an adopted shard into this server's index so
// one-sided GETs keep working after a migration: values are read back
// from the (already LT_moved) value LMRs. Keys are walked sorted for
// run-to-run determinism.
func (srv *server) idxAdopt(p *simtime.Proc, c *lite.Client) error {
	keys := make([]string, 0, len(srv.index))
	for k := range srv.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		e := srv.index[key]
		buf := make([]byte, e.size)
		if err := c.Read(p, e.lh, 0, buf); err != nil {
			return err
		}
		srv.idxPut(p, c, key, buf[valueHdr:])
	}
	return nil
}

// ---- client side ----

// attachInfo is a client's cached view of one server's published index
// generation.
type attachInfo struct {
	idx   lite.LH
	heap  lite.LH
	gen   uint64
	nb    int64
	fence uint64
}

// attachTo resolves (one RPC, amortized over every subsequent GET) and
// maps a server's index generation.
func (k *Client) attachTo(p *simtime.Proc, node int) (*attachInfo, error) {
	if a := k.att[node]; a != nil {
		return a, nil
	}
	req, _ := json.Marshal(request{Op: "attach"})
	out, err := k.metaRPC(p, node, req)
	if err != nil {
		return nil, err
	}
	var resp response
	if json.Unmarshal(out, &resp) != nil || !resp.OK || resp.IndexName == "" {
		return nil, errNoIdx
	}
	idx, err := k.c.Map(p, resp.IndexName)
	if err != nil {
		return nil, errStale
	}
	heap, err := k.c.Map(p, resp.HeapName)
	if err != nil {
		_ = k.c.Unmap(p, idx)
		return nil, errStale
	}
	a := &attachInfo{idx: idx, heap: heap, gen: resp.Gen, nb: resp.NBuckets, fence: resp.Gen << 1}
	if k.att == nil {
		k.att = make(map[int]*attachInfo)
	}
	k.att[node] = a
	k.Attaches++
	return a, nil
}

// detach drops a stale attachment (the generation it maps was freed).
func (k *Client) detach(p *simtime.Proc, node int) {
	if a := k.att[node]; a != nil {
		_ = k.c.Unmap(p, a.idx)
		_ = k.c.Unmap(p, a.heap)
		delete(k.att, node)
	}
}

// tryDirect runs one round of the client-traversed GET protocol
// against an attachment: two WR chains, one doorbell and one round trip
// each. It returns the value, ErrNotFound (linearized at the bucket
// read, validated through the fence), errTorn (retry) or errStale
// (re-attach).
func (k *Client) tryDirect(p *simtime.Proc, a *attachInfo, key string) ([]byte, error) {
	h := hashKey64(key)
	b1, b2 := buckets(h, a.nb)
	bs := [2]int64{b1, b2}
	var bb [2 * bucketBytes]byte
	segs := []lite.ReadSeg{
		{LH: a.idx, Off: idxHdr + b1*bucketBytes, Buf: bb[:bucketBytes]},
		{LH: a.idx, Off: idxHdr + b2*bucketBytes, Buf: bb[bucketBytes:]},
	}
	if b2 == b1 {
		segs = segs[:1]
	}
	// Chain 1: both candidate buckets.
	if k.c.ReadV(p, segs) != nil {
		return nil, errStale
	}
	var word [8]byte
	sawOdd := false
	for s := int64(0); s < int64(len(segs))*slotsPerBucket; s++ {
		w := bb[s*slotBytes:]
		ver := binary.LittleEndian.Uint64(w[0:])
		tag := binary.LittleEndian.Uint64(w[8:])
		pos := int64(binary.LittleEndian.Uint64(w[16:]))
		rlen := int64(binary.LittleEndian.Uint64(w[24:]))
		if ver&1 == 1 {
			sawOdd = true
			continue
		}
		if rlen == 0 || tag != h {
			continue
		}
		// Chain 2: the record, then the slot's version word. The
		// responder executes the second READ after the first, so an
		// unchanged version proves the slot — and with it the generation
		// holding the record — was stable from the bucket read to past
		// the record read: the seqlock validation, without an atomic.
		rec := make([]byte, rlen)
		slot := bs[s/slotsPerBucket]*slotsPerBucket + s%slotsPerBucket
		if k.c.ReadV(p, []lite.ReadSeg{
			{LH: a.heap, Off: pos, Buf: rec},
			{LH: a.idx, Off: slotOff(slot), Buf: word[:]},
		}) != nil {
			return nil, errStale
		}
		if binary.LittleEndian.Uint64(word[:]) != ver {
			return nil, errTorn
		}
		klen := int(binary.LittleEndian.Uint16(rec))
		if 2+klen > len(rec) || string(rec[2:2+klen]) != key {
			continue
		}
		return rec[2+klen:], nil
	}
	if sawOdd {
		return nil, errTorn
	}
	// Miss: the fence, read after the buckets, proves "not found" comes
	// from a generation that was live and stable at the bucket read.
	if k.c.Read(p, a.idx, 0, word[:]) != nil || binary.LittleEndian.Uint64(word[:]) != a.fence {
		return nil, errStale
	}
	return nil, ErrNotFound
}

// GetDirect fetches key's value with the client-traversed one-sided
// protocol: a buckets chain, then a record + version chain — zero server
// CPU and zero admission cost on the stable path. Torn reads retry;
// persistent conflict, a resize/migration fence, or a server that
// publishes no index falls back to the RPC path.
func (k *Client) GetDirect(p *simtime.Proc, key string) ([]byte, error) {
	full := k.prefix + key
	if k.prefix != "" {
		// Tenant keys are not indexed (the index is kernel-public).
		return k.getValRPC(p, full)
	}
	k.refreshEpoch()
	const maxTries = 6
	for i := 0; i < maxTries; i++ {
		node := k.serverFor(full)
		a, err := k.attachTo(p, node)
		if err != nil {
			break
		}
		v, err := k.tryDirect(p, a, full)
		switch {
		case err == nil:
			k.DirectGets++
			return v, nil
		case errors.Is(err, ErrNotFound):
			k.DirectGets++
			return nil, ErrNotFound
		case errors.Is(err, errTorn):
			k.DirectRetries++
		case errors.Is(err, errStale):
			k.DirectRetries++
			k.detach(p, node)
		default:
			i = maxTries
		}
	}
	k.DirectFallbacks++
	return k.getValRPC(p, full)
}

// GetRPC fetches key's value entirely over the metadata RPC path (the
// server reads the value and ships it in the reply) — the baseline the
// crossover experiment compares GetDirect against.
func (k *Client) GetRPC(p *simtime.Proc, key string) ([]byte, error) {
	return k.getValRPC(p, k.prefix+key)
}

// getValRPC asks with getReplyBudget first. A value too large for it
// comes back as the budget it needs, and the client asks once more with
// that; a value that outgrew even the second budget in between is an
// error, not a miss.
func (k *Client) getValRPC(p *simtime.Proc, full string) ([]byte, error) {
	req := request{Op: "get", Key: full}
	budget := int64(getReplyBudget)
	for try := 0; try < 2; try++ {
		in, _ := json.Marshal(req)
		out, err := k.metaRPCN(p, k.serverFor(full), in, budget)
		if err != nil {
			return nil, err
		}
		var resp response
		if json.Unmarshal(out, &resp) != nil {
			return nil, ErrNotFound
		}
		if resp.Need > 0 {
			req.Budget, budget = resp.Need, resp.Need
			continue
		}
		if !resp.OK {
			return nil, ErrNotFound
		}
		return resp.Value, nil
	}
	return nil, fmt.Errorf("kvstore: get %q: value outgrew its reply budget", full)
}

// refreshEpoch drops per-epoch caches (value handles and index
// attachments) when the membership epoch moves: a death or rejoin can
// re-home keys.
func (k *Client) refreshEpoch() {
	if e := k.c.MembershipEpoch(); e != k.cacheEpoch {
		k.cache = make(map[string]*cachedHandle)
		k.att = make(map[int]*attachInfo)
		k.cacheEpoch = e
	}
}
