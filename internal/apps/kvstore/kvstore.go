// Package kvstore implements a distributed key-value store on LITE in
// the style of the RDMA key-value systems the paper motivates and
// compares against (Pilaf, HERD, FaRM's hash table): values live in
// LITE memory and are fetched with one-sided LT_reads — no server CPU
// on the get path — while puts and index lookups go through LT_RPC.
//
// Keys are hash-partitioned across server nodes. Each server keeps an
// in-memory index from key to (LMR name, length, version); clients
// resolve a key once through the metadata path, cache the mapped
// handle, and then read the value directly. A version check detects
// stale handles after overwrites, falling back to re-resolution — the
// standard optimistic one-sided-read protocol.
//
// Under native RDMA this design is exactly the one §2.4 shows failing
// to scale: one memory region per value overwhelms NIC SRAM. Under
// LITE, per-value LMRs are free because the NIC holds one global
// physical registration.
package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"lite/internal/cluster"
	"lite/internal/lite"
	"lite/internal/simtime"
)

// kvFn is the RPC function id for the metadata path.
const kvFn = lite.FirstUserFunc + 12

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kvstore: key not found")

// valueHdr prefixes every value LMR: [8B version]. A get reads header
// and payload in one LT_read and validates the version.
const valueHdr = 8

type request struct {
	Op    string // "put", "lookup", "get", "attach", "delete"
	Key   string
	Value []byte `json:",omitempty"`
	// Budget is a "get"'s reply budget in bytes when it is not
	// getReplyBudget: a retry sized by a previous reply's Need.
	Budget int64 `json:",omitempty"`
}

// getReplyBudget is the reply budget a "get" asks with first. The value
// travels base64-encoded in a JSON reply, so this fits values up to
// about 6 KB; a reply that would not fit states its size in Need instead.
const getReplyBudget = 8192

type response struct {
	OK      bool
	Name    string
	Len     int64
	Version uint64
	// One-sided read-path fields ("get" and "attach" replies only;
	// omitempty keeps every pre-existing reply byte-identical).
	Value     []byte `json:",omitempty"`
	IndexName string `json:",omitempty"`
	HeapName  string `json:",omitempty"`
	Gen       uint64 `json:",omitempty"`
	NBuckets  int64  `json:",omitempty"`
	// Need is the reply budget a "get" reply would have taken, sent
	// instead of the value when it exceeds the request's budget.
	Need int64 `json:",omitempty"`
}

// Store is a deployed key-value store.
type Store struct {
	cls     *cluster.Cluster
	dep     *lite.Deployment
	servers []int
	id      int
	threads int
	// fn is the RPC function id this store's metadata path speaks —
	// kvFn for Start, caller-chosen for StartFn (several independent
	// single-server stores can then coexist as shards of a larger
	// keyspace without colliding on one function id).
	fn int
	// isServer marks the nodes currently serving a shard (it changes
	// when DrainShard re-homes one); srvs holds their live server
	// structs so a migration can reach the source's index.
	isServer map[int]bool
	srvs     map[int]*server
	gen      int
	// onesided stores additionally publish a client-traversed index
	// (see onesided.go); off by default so existing deployments are
	// bit-identical.
	onesided bool
}

// Start deploys the store's metadata servers on the given nodes. Each
// server node runs `threads` RPC server threads. A server node that
// crashes and restarts comes back with an empty index — its values
// died with it — and its serving threads are re-armed automatically.
func Start(cls *cluster.Cluster, dep *lite.Deployment, servers []int, threads int) (*Store, error) {
	return StartFn(cls, dep, servers, threads, kvFn)
}

// StartOneSided is Start for a store that additionally publishes the
// client-traversed one-sided index: GETs issued through
// Client.GetDirect resolve with zero server CPU (see onesided.go).
func StartOneSided(cls *cluster.Cluster, dep *lite.Deployment, servers []int, threads int) (*Store, error) {
	s, err := StartFn(cls, dep, servers, threads, kvFn)
	if err != nil {
		return nil, err
	}
	s.onesided = true
	return s, nil
}

// StartFn is Start with a caller-chosen RPC function id in
// [lite.FirstUserFunc, lite.MaxFunc). Rebalancing harnesses use it to
// deploy one store per shard, each on its own function id, so shards
// route and migrate independently.
func StartFn(cls *cluster.Cluster, dep *lite.Deployment, servers []int, threads, fn int) (*Store, error) {
	// The store id feeds LMR names, which ride in Malloc control
	// messages and Put replies — it must come from deployment-scoped
	// state, or two seed-identical runs mint different-width ids and
	// their message timings drift (see Deployment.NextAppSeq).
	s := &Store{
		cls: cls, dep: dep, servers: servers, id: int(dep.NextAppSeq()),
		threads: threads, fn: fn,
		isServer: make(map[int]bool, len(servers)),
		srvs:     make(map[int]*server, len(servers)),
	}
	for _, node := range servers {
		s.isServer[node] = true
		if err := dep.Instance(node).RegisterRPC(s.fn); err != nil {
			return nil, err
		}
		s.spawn(node)
	}
	cls.OnNodeUp(func(p *simtime.Proc, node int) {
		if s.isServer[node] {
			s.spawn(node)
		}
	})
	return s, nil
}

// spawn stands up a fresh (empty-index) server incarnation on node and
// arms its RPC threads.
func (s *Store) spawn(node int) {
	// Each incarnation gets its own generation number so the value
	// LMR names it allocates never collide with names its previous
	// life left behind in the manager directory.
	s.gen++
	srv := &server{store: s, node: node, gen: s.gen, index: make(map[string]*entry), idx: &idxState{}}
	s.srvs[node] = srv
	s.armThreads(srv)
}

// armThreads starts the RPC serving threads for one server struct.
func (s *Store) armThreads(srv *server) {
	for th := 0; th < s.threads; th++ {
		s.cls.GoDaemonOn(srv.node, "kv-server", func(p *simtime.Proc) { srv.loop(p) })
	}
}

// hashKey is FNV-1a over the key, the partitioning hash.
func hashKey(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// serverFor returns the home server of a key (hash partitioning).
func (s *Store) serverFor(key string) int {
	return s.servers[int(hashKey(key))%len(s.servers)]
}

// entry is one key's server-side metadata.
type entry struct {
	name    string
	lh      lite.LH
	size    int64
	version uint64
}

// server owns one node's index shard.
type server struct {
	store *Store
	node  int
	gen   int
	index map[string]*entry
	seq   int
	// served counts metadata-path requests handled by this incarnation;
	// load-driven rebalancers read it through Store.ServedOps.
	served int64
	// freeFailed counts value-LMR frees that returned an error.
	freeFailed int64
	// tcs caches per-tenant clients so a tenant's value LMRs are
	// allocated in that tenant's namespace (another tenant cannot map
	// or read them, even knowing the LMR name).
	tcs map[uint16]*lite.Client
	// idx is the published one-sided index (LMRs allocated lazily, and
	// only when the store is one-sided).
	idx *idxState
}

// tenantPrefix is the key-namespace prefix a tenant's requests must
// carry; the server derives the required prefix from the transport's
// tenant label, so a tenant cannot route into another tenant's keys by
// forging request bodies.
func tenantPrefix(ten uint16) string { return fmt.Sprintf("t%d/", ten) }

// allocClient returns the client value LMRs are allocated with: the
// calling tenant's client, so the LMR lands in its namespace. Kernel
// callers (tenant 0) keep the untenanted kernel client.
func (srv *server) allocClient(c *lite.Client, ten uint16) *lite.Client {
	if ten == 0 {
		return c
	}
	if srv.tcs == nil {
		srv.tcs = make(map[uint16]*lite.Client)
	}
	tc := srv.tcs[ten]
	if tc == nil {
		tc = srv.store.dep.Instance(srv.node).TenantClient(ten)
		srv.tcs[ten] = tc
	}
	return tc
}

func (srv *server) loop(p *simtime.Proc) {
	c := srv.store.dep.Instance(srv.node).KernelClient()
	call, err := c.RecvRPC(p, srv.store.fn)
	for err == nil {
		out := srv.handle(p, c, call)
		call, err = c.ReplyRecvRPC(p, call, out, srv.store.fn)
	}
}

func (srv *server) handle(p *simtime.Proc, c *lite.Client, call *lite.Call) []byte {
	srv.served++
	var req request
	var resp response
	var budget int64 // a "get" reply's byte budget
	if json.Unmarshal(call.Input, &req) == nil {
		// Tenant calls only reach their own key namespace: the required
		// prefix comes from the transport's tenant label, not the
		// request body, so it cannot be forged.
		if ten := call.Tenant; ten != 0 && !strings.HasPrefix(req.Key, tenantPrefix(ten)) {
			req.Op = "denied"
		}
		switch req.Op {
		case "put":
			resp = srv.put(p, srv.allocClient(c, call.Tenant), req.Key, req.Value)
			// Tenant keys are never published to the kernel-public
			// one-sided index (see onesided.go).
			if resp.OK && srv.store.onesided && call.Tenant == 0 {
				srv.idxPut(p, c, req.Key, req.Value)
			}
		case "lookup":
			if e, ok := srv.index[req.Key]; ok {
				resp = response{OK: true, Name: e.name, Len: e.size, Version: e.version}
			}
		case "get":
			// RPC-path value fetch: the server reads the value itself and
			// ships it in the reply — the baseline GetDirect competes with.
			budget = getReplyBudget
			if req.Budget > 0 {
				budget = req.Budget
			}
			if e, ok := srv.index[req.Key]; ok {
				buf := make([]byte, e.size)
				if c.Read(p, e.lh, 0, buf) == nil {
					resp = response{OK: true, Len: e.size, Version: e.version, Value: buf[valueHdr:]}
				}
			}
		case "attach":
			if srv.store.onesided {
				srv.idx.lock(p)
				err := srv.idxEnsure(p, c)
				ix := srv.idx
				if err == nil {
					resp = response{OK: true, IndexName: ix.idxName, HeapName: ix.heapName, Gen: ix.seq, NBuckets: ix.nb}
				}
				srv.idx.unlock(p)
			}
		case "delete":
			if e, ok := srv.index[req.Key]; ok {
				delete(srv.index, req.Key)
				srv.free(p, c, e.lh)
				resp.OK = true
				if srv.store.onesided && call.Tenant == 0 {
					srv.idxDelete(p, c, req.Key)
				}
			}
		}
	}
	out, _ := json.Marshal(resp)
	if budget > 0 && int64(len(out)) > budget {
		// The caller would get a truncated, undecodable reply: tell it
		// the budget to ask again with.
		out, _ = json.Marshal(response{Need: int64(len(out))})
	}
	return out
}

// put stores a value. Same-size overwrites update in place and bump
// the version; size changes allocate a fresh LMR (old readers' cached
// handles fail their version check and re-resolve). A fresh LMR is
// written before it is published and the one it replaces is freed
// last: every call here yields, and the store's other threads must
// never find a still-zero value behind the key. What a fresh LMR
// replaces is read when it is published, not before the yields, so
// two racing resizes each free exactly the entry they displaced.
func (srv *server) put(p *simtime.Proc, c *lite.Client, key string, value []byte) response {
	total := valueHdr + int64(len(value))
	for {
		e, ok := srv.index[key]
		fresh := !ok || e.size != total
		if fresh {
			srv.seq++
			name := fmt.Sprintf("kv%d-%d-g%d-%d", srv.store.id, srv.node, srv.gen, srv.seq)
			lh, err := c.Malloc(p, total, name, lite.PermRead)
			if err != nil {
				return response{}
			}
			e = &entry{name: name, lh: lh, size: total}
		}
		e.version++
		buf := make([]byte, total)
		binary.LittleEndian.PutUint64(buf, e.version)
		copy(buf[valueHdr:], value)
		if err := c.Write(p, e.lh, 0, buf); err != nil {
			if fresh {
				srv.free(p, c, e.lh)
			} else if srv.index[key] != e {
				// A resize displaced (and freed) the entry this in-place
				// write was aimed at: write against the current one.
				continue
			}
			return response{}
		}
		if fresh {
			old := srv.index[key]
			srv.index[key] = e
			if old != nil {
				// Stale handles are invalidated cluster-wide by LT_free.
				srv.free(p, c, old.lh)
			}
		}
		return response{OK: true, Name: e.name, Len: e.size, Version: e.version}
	}
}

// free releases a value LMR this server allocated; a failure (freeing
// an LMR twice is one) is counted in freeFailed.
func (srv *server) free(p *simtime.Proc, c *lite.Client, lh lite.LH) {
	if c.Free(p, lh) != nil {
		srv.freeFailed++
	}
}

// Client is one process's handle on the store.
type Client struct {
	store *Store
	c     *lite.Client
	// prefix is the tenant key-namespace prefix ("t<id>/", empty for
	// kernel clients); it participates in routing and the index, so a
	// tenant's keys hash and migrate like any other keys.
	prefix string
	// cache maps keys to mapped value handles for the one-sided path.
	// It is valid only for one membership epoch: a node death or
	// rejoin can re-home keys, so a cached handle from an older epoch
	// might read a value the key no longer routes to.
	cache      map[string]*cachedHandle
	cacheEpoch uint64
	// att caches per-server index attachments for the client-traversed
	// GetDirect path; like cache it is valid for one membership epoch.
	att map[int]*attachInfo
	// Stats.
	OneSidedGets int64
	MetaLookups  int64
	// HandlesKept counts own PUTs that landed in place under a cached
	// handle; HandlesDropped counts handles invalidated (size-changing
	// PUT, delete, revoked LMR) — each one is a MetaLookup the next Get
	// of that key pays.
	HandlesKept    int64
	HandlesDropped int64
	Overloads      int64
	Resubmits      int64
	// Client-traversed path stats.
	DirectGets      int64 // GETs resolved without any server CPU
	DirectRetries   int64 // torn reads / stale attachments retried
	DirectFallbacks int64 // GETs that fell back to the RPC path
	Attaches        int64 // index attach round trips
}

type cachedHandle struct {
	name    string // LMR name the handle maps; a PUT reply naming it landed in place
	lh      lite.LH
	size    int64
	version uint64
}

// NewClient returns a client bound to one node.
func (s *Store) NewClient(node int) *Client {
	return &Client{store: s, c: s.dep.Instance(node).KernelClient(), cache: make(map[string]*cachedHandle)}
}

// NewTenantClient returns a client bound to one node that issues every
// operation as the given tenant: keys live under the tenant's own
// namespace, values are allocated as tenant-owned LMRs, and the
// one-sided get path is subject to the lite layer's tenant checks.
func (s *Store) NewTenantClient(node int, ten uint16) *Client {
	k := s.NewClient(node)
	if ten != 0 {
		k.c = s.dep.Instance(node).TenantClient(ten)
		k.prefix = tenantPrefix(ten)
	}
	return k
}

// serverFor routes a key from this client's view of the membership: a
// key whose home server is currently declared dead is deterministically
// remapped onto the surviving servers (the data it held is lost — the
// application re-puts on ErrNotFound). If every server looks dead the
// home mapping is kept, so the error surfaces as ErrNodeDead rather
// than a panic.
func (k *Client) serverFor(key string) int {
	h := hashKey(key)
	home := k.store.servers[int(h)%len(k.store.servers)]
	if !k.c.NodeDead(home) {
		return home
	}
	var live []int
	for _, s := range k.store.servers {
		if !k.c.NodeDead(s) {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return home
	}
	return live[int(h)%len(live)]
}

// metaRPC sends one metadata-path request through the bounded retry
// layer, so a flapping link is retried and a dead server fails fast.
// An overloaded server is visible to callers as lite.ErrOverloaded —
// a definitive "not executed" the application may back off on and
// resubmit, unlike a timeout whose call may still be in flight.
//
// A retry that crossed a server restart comes back ErrMaybeExecuted:
// the call may or may not have run, and the transport cannot say
// which. Every kvstore metadata op (put, get-meta, delete) is
// idempotent — re-running one lands the store in the same state — so
// the ambiguity is safe to resolve by resubmitting once against the
// restarted server. A second ambiguous answer is surfaced: something
// is wrong beyond a single unlucky restart.
func (k *Client) metaRPC(p *simtime.Proc, dst int, req []byte) ([]byte, error) {
	return k.metaRPCN(p, dst, req, 512)
}

// metaRPCN is metaRPC with a caller-chosen reply budget (the "get" op
// ships whole values back, which don't fit the 512-byte metadata cap).
func (k *Client) metaRPCN(p *simtime.Proc, dst int, req []byte, maxReply int64) ([]byte, error) {
	out, err := k.c.RPCRetry(p, dst, k.store.fn, req, maxReply)
	if errors.Is(err, lite.ErrMaybeExecuted) {
		k.Resubmits++
		out, err = k.c.RPCRetry(p, dst, k.store.fn, req, maxReply)
	}
	if errors.Is(err, lite.ErrOverloaded) {
		k.Overloads++
	}
	return out, err
}

// Put stores value under key via the metadata path.
func (k *Client) Put(p *simtime.Proc, key string, value []byte) error {
	key = k.prefix + key
	req, _ := json.Marshal(request{Op: "put", Key: key, Value: value})
	out, err := k.metaRPC(p, k.serverFor(key), req)
	if err != nil {
		return err
	}
	return k.putDone(key, out)
}

// putDone decodes a put reply and keeps the client's cached handle
// coherent with it. A same-size PUT overwrote the value in place under
// the same LMR, so the handle still maps the live value: keep it and
// raise its version floor to the one just written, so the next Get
// re-reads rather than return anything older than our own write. Only
// a size-changing PUT (fresh LMR, the old one freed) invalidates it.
func (k *Client) putDone(key string, out []byte) error {
	var resp response
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK {
		return fmt.Errorf("kvstore: put %q failed", key)
	}
	if ch, ok := k.cache[key]; ok && ch.name == resp.Name && ch.size == resp.Len {
		ch.version = resp.Version
		k.HandlesKept++
	} else {
		k.dropHandle(key)
	}
	return nil
}

// dropHandle forgets key's cached handle, if there is one; the next
// Get re-resolves.
func (k *Client) dropHandle(key string) {
	if _, ok := k.cache[key]; ok {
		delete(k.cache, key)
		k.HandlesDropped++
	}
}

// PutOnce stores value under key with a single unretried RPC. Open-loop
// load harnesses use it so overload sheds and timeouts surface to the
// caller (errors.Is lite.ErrOverloaded / lite.ErrTimeout) instead of
// dissolving into retries.
func (k *Client) PutOnce(p *simtime.Proc, key string, value []byte) error {
	key = k.prefix + key
	req, _ := json.Marshal(request{Op: "put", Key: key, Value: value})
	out, err := k.c.RPC(p, k.serverFor(key), k.store.fn, req, 512)
	if err != nil {
		return err
	}
	return k.putDone(key, out)
}

// LookupOnce resolves key's metadata with a single unretried RPC and
// reports whether it exists, without mapping the value. The raw
// metadata-path counterpart of PutOnce for load harnesses.
func (k *Client) LookupOnce(p *simtime.Proc, key string) error {
	key = k.prefix + key
	req, _ := json.Marshal(request{Op: "lookup", Key: key})
	out, err := k.c.RPC(p, k.serverFor(key), k.store.fn, req, 512)
	if err != nil {
		return err
	}
	var resp response
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK {
		return ErrNotFound
	}
	return nil
}

// ResolveName returns the LMR name currently backing key, without
// mapping it. Isolation probes use it (through a kernel client) to
// learn a victim tenant's LMR name and prove that mapping it as
// another tenant is denied.
func (k *Client) ResolveName(p *simtime.Proc, key string) (string, error) {
	key = k.prefix + key
	req, _ := json.Marshal(request{Op: "lookup", Key: key})
	out, err := k.metaRPC(p, k.serverFor(key), req)
	if err != nil {
		return "", err
	}
	var resp response
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK {
		return "", ErrNotFound
	}
	return resp.Name, nil
}

// Get fetches the value for key. The hot path is one one-sided
// LT_read against the cached handle. The handle stays valid for as
// long as the value keeps its LMR: same-size PUTs (this client's or
// anyone's) overwrite in place and are simply read through it; only a
// size-changing PUT or a delete frees the LMR, and the failed LT_read
// that follows is what drops the handle and falls back to the
// metadata path.
func (k *Client) Get(p *simtime.Proc, key string) ([]byte, error) {
	key = k.prefix + key
	k.refreshEpoch()
	for attempt := 0; attempt < 3; attempt++ {
		ch, ok := k.cache[key]
		if !ok {
			var err error
			ch, err = k.resolve(p, key)
			if err != nil {
				return nil, err
			}
		}
		buf := make([]byte, ch.size)
		if err := k.c.Read(p, ch.lh, 0, buf); err != nil {
			// Handle revoked (value freed and reallocated): re-resolve.
			k.dropHandle(key)
			continue
		}
		k.OneSidedGets++
		if ver := binary.LittleEndian.Uint64(buf); ver < ch.version {
			// The version we were told of is not in memory yet: the
			// server bumps it before its write lands. The handle is
			// fine — read again through it.
			continue
		}
		return buf[valueHdr:], nil
	}
	return nil, fmt.Errorf("kvstore: get %q kept racing updates", key)
}

// resolve performs the metadata path: an RPC lookup plus LT_map.
func (k *Client) resolve(p *simtime.Proc, key string) (*cachedHandle, error) {
	k.MetaLookups++
	req, _ := json.Marshal(request{Op: "lookup", Key: key})
	out, err := k.metaRPC(p, k.serverFor(key), req)
	if err != nil {
		return nil, err
	}
	var resp response
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK {
		return nil, ErrNotFound
	}
	lh, err := k.c.Map(p, resp.Name)
	if err != nil {
		return nil, ErrNotFound
	}
	ch := &cachedHandle{name: resp.Name, lh: lh, size: resp.Len, version: resp.Version}
	k.cache[key] = ch
	return ch, nil
}

// Delete removes a key.
func (k *Client) Delete(p *simtime.Proc, key string) error {
	key = k.prefix + key
	req, _ := json.Marshal(request{Op: "delete", Key: key})
	out, err := k.metaRPC(p, k.serverFor(key), req)
	if err != nil {
		return err
	}
	var resp response
	if err := json.Unmarshal(out, &resp); err != nil || !resp.OK {
		return ErrNotFound
	}
	k.dropHandle(key)
	return nil
}
