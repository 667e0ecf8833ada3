// Shard rebalancing: DrainShard live-migrates one server node's whole
// shard — index, value LMRs, and the LITE-level serving state (dedup
// windows, boot lineage) — onto another node with zero failed client
// calls. The heavy lifting is lite.Instance.Drain; this file supplies
// the application side of the handoff:
//
//   - the appState callback runs on the quiesced source and, per key,
//     grants the target mastership of the value LMR and LT_moves its
//     backing pages to the target node, then serializes the index
//     (sorted — the payload must be byte-identical across runs);
//   - the OnAdoptFrom hook runs on the target while the source is fenced:
//     it stands up serving threads (registering kvFn if this node never
//     served before), LT_maps every shipped LMR name, and installs the
//     index entries.
//
// Clients need no coordination: calls issued at the old home during
// the fence are answered with a moved notification and transparently
// re-routed by the retry layer; the Store's own routing table is
// re-pointed after commit so later calls go direct.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"lite/internal/lite"
	"lite/internal/simtime"
)

// DrainShard live-migrates the shard served at node from onto node to.
// On success from no longer serves this store (stale traffic bounces to
// to); on error the migration aborted and from still owns the shard.
func (s *Store) DrainShard(p *simtime.Proc, from, to int) error {
	if !s.isServer[from] || s.srvs[from] == nil {
		return fmt.Errorf("kvstore: node %d serves no shard of store %d", from, s.id)
	}
	if from == to {
		return fmt.Errorf("kvstore: shard at node %d is already there", from)
	}
	// Source-scoped hook: concurrent drains of other stores sharing this
	// fn onto the same target must not overwrite each other's adoption.
	s.dep.Instance(to).OnAdoptFrom(s.fn, from, s.adoptHook(to))
	err := s.dep.Instance(from).Drain(p, s.fn, to, s.shardState(from, to))
	if err != nil {
		return err
	}
	// Ownership committed: route future calls straight to the new home.
	// Replacing from's slots (rather than re-hashing) keeps every other
	// key's mapping unchanged.
	for idx, n := range s.servers {
		if n == from {
			s.servers[idx] = to
		}
	}
	s.isServer[from] = false
	s.isServer[to] = true
	delete(s.srvs, from)
	return nil
}

// ServedOps returns the number of metadata-path requests the server
// incarnation currently on node has handled, or 0 if node serves no
// shard of this store. Load-driven rebalancers sample it periodically;
// the delta between samples is the shard's request rate.
func (s *Store) ServedOps(node int) int64 {
	if srv := s.srvs[node]; srv != nil {
		return srv.served
	}
	return 0
}

// ServerNodes returns the nodes currently serving this store, sorted.
func (s *Store) ServerNodes() []int {
	var nodes []int
	for n, on := range s.isServer {
		if on {
			nodes = append(nodes, n)
		}
	}
	sort.Ints(nodes)
	return nodes
}

// shardState returns the Drain appState callback: it runs on the
// source after the function has quiesced, hands each value LMR to the
// target (grant mastership, move the backing pages), and serializes
// the index.
//
// Payload wire format, little endian, keys sorted:
//
//	[nkeys 4] per key: [klen 2][key][nlen 2][name][size 8][version 8]
func (s *Store) shardState(from, to int) func(q *simtime.Proc) ([]byte, error) {
	return func(q *simtime.Proc) ([]byte, error) {
		srv := s.srvs[from]
		c := s.dep.Instance(from).KernelClient()
		// One-sided stores fence and retire the source's published index
		// first: in-flight client-traversed readers fail their CAS
		// validation (the fence goes odd and every slot version is
		// poisoned) and fall back to the RPC path, which the drain
		// protocol re-routes to the target. The function is quiesced, so
		// no local mutator holds the index lock.
		if s.onesided && srv.idx.inited {
			s.cls.Announce(q, "kvstore.drain.fence")
			srv.idxPoison(q, c)
		}
		keys := make([]string, 0, len(srv.index))
		for k := range srv.index {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(out, uint32(len(keys)))
		var b [8]byte
		for _, key := range keys {
			e := srv.index[key]
			if err := c.Grant(q, e.lh, to, lite.PermRead|lite.PermWrite|lite.PermMaster); err != nil {
				return nil, err
			}
			if err := c.Move(q, e.lh, to); err != nil {
				return nil, err
			}
			// Relinquish our own mastership: the target is now the sole
			// owner, so grant requests never route to this (soon idle,
			// possibly later dead) node.
			if err := c.Grant(q, e.lh, from, lite.PermRead|lite.PermWrite); err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint16(b[:2], uint16(len(key)))
			out = append(out, b[:2]...)
			out = append(out, key...)
			binary.LittleEndian.PutUint16(b[:2], uint16(len(e.name)))
			out = append(out, b[:2]...)
			out = append(out, e.name...)
			binary.LittleEndian.PutUint64(b[:], uint64(e.size))
			out = append(out, b[:]...)
			binary.LittleEndian.PutUint64(b[:], e.version)
			out = append(out, b[:]...)
		}
		return out, nil
	}
}

// adoptHook returns the OnAdoptFrom callback for a migration landing on
// node: stand up serving (or reuse the shard server already there) and
// install the shipped index.
func (s *Store) adoptHook(node int) lite.AdoptFunc {
	return func(p *simtime.Proc, src int, app []byte) error {
		srv, ok := s.srvs[node]
		if !ok {
			inst := s.dep.Instance(node)
			if !inst.RPCRegistered(s.fn) {
				if err := inst.RegisterRPC(s.fn); err != nil {
					return err
				}
			}
			s.gen++
			srv = &server{store: s, node: node, gen: s.gen, index: make(map[string]*entry), idx: &idxState{}}
			s.srvs[node] = srv
			s.armThreads(srv)
		}
		return srv.adoptIndex(p, app)
	}
}

// adoptIndex parses a shardState payload and installs its entries,
// mapping each shipped LMR name into a local handle.
func (srv *server) adoptIndex(p *simtime.Proc, app []byte) error {
	if len(app) < 4 {
		return fmt.Errorf("kvstore: truncated shard payload")
	}
	c := srv.store.dep.Instance(srv.node).KernelClient()
	n := int(binary.LittleEndian.Uint32(app))
	off := 4
	str := func() (string, bool) {
		if len(app) < off+2 {
			return "", false
		}
		l := int(binary.LittleEndian.Uint16(app[off:]))
		off += 2
		if len(app) < off+l {
			return "", false
		}
		v := string(app[off : off+l])
		off += l
		return v, true
	}
	for k := 0; k < n; k++ {
		key, ok := str()
		if !ok {
			return fmt.Errorf("kvstore: truncated shard payload")
		}
		name, ok := str()
		if !ok || len(app) < off+16 {
			return fmt.Errorf("kvstore: truncated shard payload")
		}
		size := int64(binary.LittleEndian.Uint64(app[off:]))
		version := binary.LittleEndian.Uint64(app[off+8:])
		off += 16
		lh, err := c.Map(p, name)
		if err != nil {
			return fmt.Errorf("kvstore: adopt map %q: %w", name, err)
		}
		srv.index[key] = &entry{name: name, lh: lh, size: size, version: version}
	}
	// One-sided stores republish the adopted shard into this server's
	// index so client-traversed GETs resume against the new home.
	if srv.store.onesided {
		return srv.idxAdopt(p, c)
	}
	return nil
}
