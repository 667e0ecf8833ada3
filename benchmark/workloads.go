package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"lite/internal/apps/kvstore"
	"lite/internal/cluster"
	"lite/internal/detrand"
	"lite/internal/lite"
	"lite/internal/obs"
	"lite/internal/params"
	"lite/internal/simtime"
	"lite/internal/tenant"
)

// op is one generated request. Everything about it is drawn from the
// seed before the phase starts; the stack under test only ever sees
// the inputs.
type op struct {
	node  int   // client node that issues it
	class uint8 // index into the workload's classes
	a, b  int64 // workload-specific: server / LMR / key, offset / namespace
}

// status is the outcome of one op as a user sees it.
type status uint8

const (
	stOK     status = iota
	stFailed        // shed, timed out or errored
	stWrong         // completed with a reply that fails verification
)

// workload is one traffic mix on its own cluster.
type workload interface {
	shared() *world
	classes() []string
	// setup preloads state and warms every binding, attachment and
	// handle the measured ops will use; it runs inside proc p.
	setup(p *simtime.Proc) error
	// plan draws the next n ops from r.
	plan(r *detrand.RNG, n int) []op
	// issue runs op k of the current phase to completion on p (which
	// already runs on o.node) and verifies the reply.
	issue(p *simtime.Proc, k int, o op) status
}

// world is what every workload shares.
type world struct {
	cls *cluster.Cluster
	dep *lite.Deployment
	// spans[k] is op k's bench.op span in the current phase of a
	// traced run; nil in plain runs.
	spans []*obs.Span
	// kv and store expose the key-value layer's own counters to the
	// per-layer report; nil on workloads that bypass it.
	kv    []*kvstore.Client
	store *kvstore.Store
}

func (w *world) shared() *world { return w }

// newWorld builds an n-node cluster with 4 GB per node and starts LITE
// on it.
func newWorld(cfg *params.Config, n int, opts lite.Options) (world, error) {
	cls, err := cluster.New(cfg, n, 4<<30)
	if err != nil {
		return world{}, err
	}
	dep, err := lite.Start(cls, opts)
	return world{cls: cls, dep: dep}, err
}

// zipf draws ranks in [0, n) with P(k) ~ 1/(1+k)^s from a caller's
// stream. (detrand.Zipf owns its stream and clamps s to > 1; the
// memory workload needs s = 0.99.)
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(1+k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *detrand.RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// parallel runs fn once per item on its own proc and waits for all of
// them; the first error wins.
func parallel(p *simtime.Proc, cls *cluster.Cluster, nodes []int, fn func(q *simtime.Proc, node int) error) error {
	var wg simtime.WaitGroup
	var first error
	wg.Add(len(nodes))
	for _, node := range nodes {
		node := node
		cls.GoOn(node, "bench-setup", func(q *simtime.Proc) {
			if err := fn(q, node); err != nil && first == nil {
				first = err
			}
			wg.Done(q.Env())
		})
	}
	wg.Wait(p)
	return first
}

// homeOf runs put (one metadata-path request) and reports which server
// of the store handled it, by watching the servers' served counters.
// The partitioning hash is the store's own business; this learns a
// key's home through the public API. Nothing else may be using the
// store meanwhile.
func homeOf(st *kvstore.Store, put func() error) (int, error) {
	servers := st.ServerNodes()
	before := make([]int64, len(servers))
	for s, node := range servers {
		before[s] = st.ServedOps(node)
	}
	if err := put(); err != nil {
		return 0, err
	}
	for s, node := range servers {
		if st.ServedOps(node) > before[s] {
			return s, nil
		}
	}
	return 0, errors.New("no server's served counter moved")
}

func nodeRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for n := lo; n < hi; n++ {
		out = append(out, n)
	}
	return out
}

// ---- rpc-small ----

const (
	smallNodes   = 8
	smallClients = 6 // nodes 0..5 call, nodes 6 and 7 serve
	echoFn       = lite.FirstUserFunc
	echoWorkers  = 4
	// Payload bounds: the first 8 bytes carry the op's index.
	smallMinBytes = 8
	smallMaxBytes = 64
)

type rpcSmall struct {
	world
	users []*lite.Client
}

func buildRPCSmall(cfg *params.Config) (workload, error) {
	wd, err := newWorld(cfg, smallNodes, lite.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w := &rpcSmall{world: wd}
	for s := smallClients; s < smallNodes; s++ {
		if err := w.dep.Instance(s).ServeRPC(echoFn, echoWorkers, w.echo); err != nil {
			return nil, err
		}
	}
	for n := 0; n < smallClients; n++ {
		w.users = append(w.users, w.dep.Instance(n).UserClient())
	}
	return w, nil
}

// echo is the zero-work handler. In a traced run it adopts the
// calling op's span, so the reply's lite and rnic spans hang under
// the op instead of under a detached server root.
func (w *rpcSmall) echo(p *simtime.Proc, c *lite.Call) []byte {
	if w.spans != nil && len(c.Input) >= 8 {
		if k := binary.LittleEndian.Uint64(c.Input); k < uint64(len(w.spans)) {
			p.SetTrace(w.spans[k])
		}
	}
	return append([]byte(nil), c.Input...)
}

func (w *rpcSmall) classes() []string { return []string{"rpc"} }

func (w *rpcSmall) setup(p *simtime.Proc) error {
	// One call per (client, server) pair negotiates every ring binding.
	return parallel(p, w.cls, nodeRange(0, smallClients), func(q *simtime.Proc, node int) error {
		for s := smallClients; s < smallNodes; s++ {
			if st := w.issue(q, 0, op{node: node, a: int64(s), b: smallMinBytes}); st != stOK {
				return fmt.Errorf("rpc-small: warm call %d->%d: status %d", node, s, st)
			}
		}
		return nil
	})
}

// plan draws the caller, the server and a payload of 8 to 64 bytes.
// All of them ride inline in the WQE, so per-call cost stays
// everything; the spread of sizes keeps the uncontended latency from
// being one constant that every percentile of every seed would sit on.
func (w *rpcSmall) plan(r *detrand.RNG, n int) []op {
	ops := make([]op, n)
	for k := range ops {
		ops[k] = op{
			node: r.Intn(smallClients),
			a:    int64(smallClients + r.Intn(smallNodes-smallClients)),
			b:    int64(smallMinBytes + r.Intn(smallMaxBytes-smallMinBytes+1)),
		}
	}
	return ops
}

func (w *rpcSmall) issue(p *simtime.Proc, k int, o op) status {
	in := make([]byte, o.b)
	binary.LittleEndian.PutUint64(in, uint64(k))
	for i := 8; i < len(in); i++ {
		in[i] = byte(k + i)
	}
	out, err := w.users[o.node].RPC(p, int(o.a), echoFn, in, smallMaxBytes)
	if err != nil {
		return stFailed
	}
	if !bytes.Equal(out, in) {
		return stWrong
	}
	return stOK
}

// ---- mem-mixed ----

const (
	memClients = 4 // nodes 0..3 map and access, nodes 4..7 are homes
	memLMRs    = 1024
	memLMRSize = 128 << 10
)

var memSizes = [3]int64{64, 4 << 10, 64 << 10}

type memMixed struct {
	world
	users []*lite.Client
	lhs   [][]lite.LH // lhs[client][lmr]
	z     *zipf
	free  [3][][]byte // per-size buffer free lists (one proc runs at a time)
}

func buildMemMixed(cfg *params.Config) (workload, error) {
	wd, err := newWorld(cfg, smallNodes, lite.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w := &memMixed{world: wd, z: newZipf(0.99, memLMRs), lhs: make([][]lite.LH, memClients)}
	for n := 0; n < memClients; n++ {
		w.users = append(w.users, w.dep.Instance(n).UserClient())
	}
	return w, nil
}

func (w *memMixed) classes() []string {
	return []string{"read64", "read4k", "read64k", "write64", "write4k", "write64k"}
}

func memName(lmr int) string { return fmt.Sprintf("mm%04d", lmr) }

// memHome spreads consecutive (Zipf-adjacent) LMRs over the homes.
func memHome(lmr int) int { return memClients + lmr%(smallNodes-memClients) }

// fillPattern writes the content every byte of an LMR always holds:
// 8-byte words that name their LMR and offset. Writes store exactly
// this pattern, so racing reads and writes of one range can never
// produce a legal mismatch and every read is verified in full.
func fillPattern(buf []byte, lmr int, off int64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], patternWord(lmr, off+int64(i)))
	}
}

func patternWord(lmr int, off int64) uint64 {
	return (uint64(lmr)<<32 | uint64(off)) * 0x9e3779b97f4a7c15
}

func checkPattern(buf []byte, lmr int, off int64) bool {
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != patternWord(lmr, off+int64(i)) {
			return false
		}
	}
	return true
}

func (w *memMixed) setup(p *simtime.Proc) error {
	err := parallel(p, w.cls, nodeRange(memClients, smallNodes), func(q *simtime.Proc, home int) error {
		kc := w.dep.Instance(home).KernelClient()
		buf := make([]byte, memLMRSize)
		for lmr := 0; lmr < memLMRs; lmr++ {
			if memHome(lmr) != home {
				continue
			}
			lh, err := kc.Malloc(q, memLMRSize, memName(lmr), lite.PermRead|lite.PermWrite)
			if err != nil {
				return fmt.Errorf("mem-mixed: malloc %s: %w", memName(lmr), err)
			}
			fillPattern(buf, lmr, 0)
			if err := kc.Write(q, lh, 0, buf); err != nil {
				return fmt.Errorf("mem-mixed: fill %s: %w", memName(lmr), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return parallel(p, w.cls, nodeRange(0, memClients), func(q *simtime.Proc, node int) error {
		w.lhs[node] = make([]lite.LH, memLMRs)
		for lmr := range w.lhs[node] {
			lh, err := w.users[node].Map(q, memName(lmr))
			if err != nil {
				return fmt.Errorf("mem-mixed: map %s on node %d: %w", memName(lmr), node, err)
			}
			w.lhs[node][lmr] = lh
		}
		return nil
	})
}

func (w *memMixed) plan(r *detrand.RNG, n int) []op {
	ops := make([]op, n)
	for k := range ops {
		size := 0
		switch u := r.Float64(); {
		case u >= 0.9:
			size = 2
		case u >= 0.6:
			size = 1
		}
		write := r.Intn(2)
		slots := memLMRSize / memSizes[size]
		ops[k] = op{
			node:  r.Intn(memClients),
			class: uint8(3*write + size),
			a:     int64(w.z.draw(r)),
			b:     int64(r.Intn(int(slots))) * memSizes[size],
		}
	}
	return ops
}

func (w *memMixed) issue(p *simtime.Proc, k int, o op) status {
	size := int(o.class % 3)
	var buf []byte
	if n := len(w.free[size]); n > 0 {
		buf, w.free[size] = w.free[size][n-1], w.free[size][:n-1]
	} else {
		buf = make([]byte, memSizes[size])
	}
	defer func() { w.free[size] = append(w.free[size], buf) }()
	lh, lmr := w.lhs[o.node][o.a], int(o.a)
	if o.class >= 3 {
		fillPattern(buf, lmr, o.b)
		if err := w.users[o.node].Write(p, lh, o.b, buf); err != nil {
			return stFailed
		}
		return stOK
	}
	clear(buf)
	if err := w.users[o.node].Read(p, lh, o.b, buf); err != nil {
		return stFailed
	}
	if !checkPattern(buf, lmr, o.b) {
		return stWrong
	}
	return stOK
}

// ---- key-value values ----

// kvValue builds the value stored under (ns, key) by its seq-th PUT:
// it carries its namespace, key and sequence, so a GET proves it read
// a value some PUT to that very key wrote, no newer than the latest
// one issued. A key's value size is fixed (base plus 0 to 28 bytes by
// key), so overwrites stay in place while reads of different keys do
// not all cost the same nanosecond.
func kvValue(base, ns, key int, seq uint64) []byte {
	v := make([]byte, kvSize(base, key))
	binary.LittleEndian.PutUint64(v, uint64(ns)<<32|uint64(key))
	binary.LittleEndian.PutUint64(v[8:], seq)
	for i := 16; i < len(v); i++ {
		v[i] = byte(key + i)
	}
	return v
}

func kvSize(base, key int) int { return base + 4*(key%8) }

func kvCheck(v []byte, base, ns, key int, latest uint64) bool {
	if len(v) != kvSize(base, key) || binary.LittleEndian.Uint64(v) != uint64(ns)<<32|uint64(key) {
		return false
	}
	if binary.LittleEndian.Uint64(v[8:]) > latest {
		return false
	}
	for i := 16; i < len(v); i++ {
		if v[i] != byte(key+i) {
			return false
		}
	}
	return true
}

// ---- kv-direct ----

const (
	directKeys    = 4096
	directValue   = 64
	directThreads = 2
	// Store ageing (see kvDirect.age).
	directAgeBytes   = 8 << 10
	directAgeKeys    = 8
	directAgeRecords = 400
)

type kvDirect struct {
	world
	keys   []string
	latest []uint64 // per key: sequence of the latest PUT issued
	z      *zipf
}

func buildKVDirect(cfg *params.Config) (workload, error) {
	wd, err := newWorld(cfg, smallNodes, lite.DefaultOptions())
	if err != nil {
		return nil, err
	}
	w := &kvDirect{world: wd, z: newZipf(1.1, directKeys), latest: make([]uint64, directKeys)}
	if w.store, err = kvstore.StartOneSided(w.cls, w.dep, nodeRange(smallClients, smallNodes), directThreads); err != nil {
		return nil, err
	}
	for k := 0; k < directKeys; k++ {
		w.keys = append(w.keys, fmt.Sprintf("k%04d", k))
	}
	for n := 0; n < smallClients; n++ {
		w.kv = append(w.kv, w.store.NewClient(n))
	}
	return w, nil
}

func (w *kvDirect) classes() []string { return []string{"get", "put"} }

func (w *kvDirect) setup(p *simtime.Proc) error {
	clients := nodeRange(0, smallClients)
	err := parallel(p, w.cls, clients, func(q *simtime.Proc, node int) error {
		for k := node; k < directKeys; k += smallClients {
			if err := w.kv[node].Put(q, w.keys[k], kvValue(directValue, 0, k, 0)); err != nil {
				return fmt.Errorf("kv-direct: preload %s: %w", w.keys[k], err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.age(p); err != nil {
		return err
	}
	// 64 GETs per client attach it to both servers' published indexes.
	return parallel(p, w.cls, clients, func(q *simtime.Proc, node int) error {
		for k := 0; k < 64; k++ {
			if st := w.issue(q, 0, op{node: node, a: int64(k)}); st != stOK {
				return fmt.Errorf("kv-direct: warm get %s on node %d: status %d", w.keys[k], node, st)
			}
		}
		return nil
	})
}

// age brings the store to the size a long-lived one has. A server's
// record heap is write-once and doubles when full, and every doubling
// fences all readers and sends them back to the RPC path; above about
// 1 op/us that stampede does not drain for tens of milliseconds. A
// freshly loaded store doubles several times within the first 50 000
// ops, so whichever phase a doubling fell into would own the tail
// metrics. Ageing writes directAgeRecords throw-away 8 KB records per
// server (through directAgeKeys keys each, so few stay live): enough
// to carry each heap through its 256 KB, 512 KB, 1 MB and 2 MB
// capacities, leaving a 4 MB heap that the measured window's PUTs
// (about 1.5 MB per server at 12 s) cannot fill. PUT appends, torn-read
// retries and slot-version races stay live; doublings do not recur.
func (w *kvDirect) age(p *simtime.Proc) error {
	kc := w.kv[0]
	big := make([]byte, directAgeBytes)
	var keys [smallNodes - smallClients][]string
	for i := 0; ; i++ {
		done := true
		for _, ks := range keys {
			done = done && len(ks) == directAgeKeys
		}
		if done {
			break
		}
		key := fmt.Sprintf("age%03d", i)
		home, err := homeOf(w.store, func() error { return kc.Put(p, key, big) })
		if err != nil {
			return fmt.Errorf("kv-direct: ageing %s: %w", key, err)
		}
		if len(keys[home]) < directAgeKeys {
			keys[home] = append(keys[home], key)
		}
	}
	for i := 0; i < directAgeRecords; i++ {
		for _, ks := range keys {
			if err := kc.Put(p, ks[i%len(ks)], big); err != nil {
				return fmt.Errorf("kv-direct: ageing: %w", err)
			}
		}
	}
	return nil
}

func (w *kvDirect) plan(r *detrand.RNG, n int) []op {
	ops := make([]op, n)
	for k := range ops {
		ops[k] = op{node: r.Intn(smallClients), a: int64(w.z.draw(r))}
		if r.Intn(10) == 0 {
			ops[k].class = 1
		}
	}
	return ops
}

func (w *kvDirect) issue(p *simtime.Proc, k int, o op) status {
	key := int(o.a)
	if o.class == 1 {
		w.latest[key]++
		if err := w.kv[o.node].PutOnce(p, w.keys[key], kvValue(directValue, 0, key, w.latest[key])); err != nil {
			return stFailed
		}
		return stOK
	}
	v, err := w.kv[o.node].GetDirect(p, w.keys[key])
	if err != nil {
		return stFailed
	}
	if !kvCheck(v, directValue, 0, key, w.latest[key]) {
		return stWrong
	}
	return stOK
}

// ---- fleet ----

const (
	fleetNodes     = 500
	fleetLeafNodes = 25 // 20 leaves of 25 hosts
	fleetSpines    = 5  // uplinks at host link rate: 5x oversubscribed
	fleetServers   = 8  // nodes 1..8; the manager is node 0
	fleetThreads   = 4
	fleetKeys      = 16 // per namespace
	fleetValue     = 32
	fleetSpaces    = 4 // kernel clients plus gold, silver and bronze tenants
	fleetHeartbeat = 2 * simtime.Time(time.Millisecond)
)

type fleet struct {
	world
	keys    []string
	latest  [fleetSpaces][]uint64
	spaceOf []int // by node: key namespace of the node's client
	z       *zipf
	tenants [fleetSpaces]uint16
}

func buildFleet(cfg *params.Config) (workload, error) {
	cfg.ClosLeafNodes = fleetLeafNodes
	cfg.ClosSpines = fleetSpines
	opts := lite.DefaultOptions()
	opts.QPsPerPair = 1
	// Hub mesh: every node connects to the manager and the servers only.
	opts.MeshPeers = func(a, b int) bool { return a <= fleetServers || b <= fleetServers }
	opts.AdmissionHighWater = 64
	opts.FairAdmission = true
	opts.HeartbeatInterval = fleetHeartbeat
	opts.ProbeStagger = true
	wd, err := newWorld(cfg, fleetNodes, opts)
	if err != nil {
		return nil, err
	}
	w := &fleet{world: wd, z: newZipf(0.99, fleetKeys), spaceOf: make([]int, fleetNodes)}
	reg := tenant.NewRegistry()
	for i, c := range []struct {
		name   string
		weight int
	}{{"gold", 4}, {"silver", 2}, {"bronze", 1}} {
		t, err := reg.Register(c.name, "secret", c.weight)
		if err != nil {
			return nil, err
		}
		w.tenants[i+1] = t.ID
	}
	reg.Attach(w.dep)
	w.store, err = kvstore.Start(w.cls, w.dep, nodeRange(1, fleetServers+1), fleetThreads)
	if err != nil {
		return nil, err
	}
	for k := 0; k < fleetKeys; k++ {
		w.keys = append(w.keys, fmt.Sprintf("k%03d", k))
	}
	for ns := range w.latest {
		w.latest[ns] = make([]uint64, fleetKeys)
	}
	w.kv = make([]*kvstore.Client, fleetNodes)
	for node := fleetServers + 1; node < fleetNodes; node++ {
		// Every third client issues through a tenant service class.
		if node%3 == 0 {
			w.spaceOf[node] = 1 + (node/3)%3
		}
		w.kv[node] = w.store.NewTenantClient(node, w.tenants[w.spaceOf[node]])
	}
	return w, nil
}

func (w *fleet) classes() []string { return []string{"get", "put"} }

func (w *fleet) setup(p *simtime.Proc) error {
	for ns := 0; ns < fleetSpaces; ns++ {
		loader := w.store.NewTenantClient(0, w.tenants[ns])
		for k := 0; k < fleetKeys; k++ {
			if err := loader.Put(p, w.keys[k], kvValue(fleetValue, ns, k, 0)); err != nil {
				return fmt.Errorf("fleet: preload ns %d %s: %w", ns, w.keys[k], err)
			}
		}
	}
	// Every client reads every key of its namespace once: that opens
	// the ring bindings it will use and caches every value handle, the
	// state a long-running fleet is in. With cold caches a third of the
	// GETs would take the three-RPC miss path through the manager, less
	// of them as the run goes on, and capacity would drift with it.
	// Clients start staggered and walk the keys in rotated order; 491
	// synchronized first calls are an incast the admission gate refuses.
	return parallel(p, w.cls, nodeRange(fleetServers+1, fleetNodes), func(q *simtime.Proc, node int) error {
		q.Sleep(simtime.Time(node) * 2 * simtime.Time(time.Microsecond))
		for i := 0; i < fleetKeys; i++ {
			if st := w.issue(q, 0, op{node: node, a: int64((i + node) % fleetKeys), b: int64(w.spaceOf[node])}); st != stOK {
				return fmt.Errorf("fleet: warm get %s on node %d: status %d", w.keys[(i+node)%fleetKeys], node, st)
			}
		}
		return nil
	})
}

func (w *fleet) plan(r *detrand.RNG, n int) []op {
	ops := make([]op, n)
	for k := range ops {
		node := fleetServers + 1 + r.Intn(fleetNodes-fleetServers-1)
		ops[k] = op{node: node, a: int64(w.z.draw(r)), b: int64(w.spaceOf[node])}
		if r.Intn(3) == 0 {
			ops[k].class = 1
		}
	}
	return ops
}

func (w *fleet) issue(p *simtime.Proc, k int, o op) status {
	key, ns := int(o.a), int(o.b)
	kc := w.kv[o.node]
	var v []byte
	var err error
	if o.class == 1 {
		w.latest[ns][key]++
		val := kvValue(fleetValue, ns, key, w.latest[ns][key])
		err = resubmit(p, func() error { return kc.Put(p, w.keys[key], val) })
	} else {
		err = resubmit(p, func() error { v, err = kc.Get(p, w.keys[key]); return err })
	}
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		return stWrong // every key is preloaded
	case err != nil:
		return stFailed
	case o.class == 0 && !kvCheck(v, fleetValue, ns, key, w.latest[ns][key]):
		return stWrong
	}
	return stOK
}

// resubmit is the well-behaved client's answer to an overload shed
// that outlasted the transport's own retries: a shed is a definitive
// "not executed" with a Retry-After hint, so back off by the hint and
// submit again. The waiting shows up as latency, not as a failure.
func resubmit(p *simtime.Proc, call func() error) error {
	err := call()
	for try := 0; try < 50; try++ {
		var ov *lite.OverloadError
		if !errors.As(err, &ov) {
			break
		}
		p.Sleep(max(ov.RetryAfter, simtime.Time(time.Microsecond)))
		err = call()
	}
	return err
}
