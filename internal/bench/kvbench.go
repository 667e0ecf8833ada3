package bench

import (
	"fmt"

	"lite/internal/apps/kvstore"
	"lite/internal/simtime"
	"lite/internal/workload"
)

func init() {
	register("kv-tput", "Key-value store on LITE: get latency and throughput", kvTput)
}

// kvTput exercises the motivating key-value workload (§2.2, §2.4): a
// store with thousands of per-value LMRs — the exact pattern that
// collapses native RDMA NIC SRAM in Figure 4 — served at one-sided
// read latency under LITE.
func kvTput() (*Table, error) {
	t := &Table{
		ID:     "kv-tput",
		Title:  "LITE key-value store (2 servers, Facebook value sizes)",
		Header: []string{"Metric", "Value"},
	}
	cls, dep, err := newLITE(4)
	if err != nil {
		return nil, err
	}
	store, err := kvstore.Start(cls, dep, []int{0, 1}, 4)
	if err != nil {
		return nil, err
	}
	const nKeys = 2000
	const clients = 8
	const getsPerClient = 200

	kv := workload.NewFacebookKV(3)
	keys := make([]string, nKeys)
	var loaded simtime.WaitGroup
	loaded.Add(1)
	var getLat []simtime.Time
	// The getters' window opens when the load completes.
	w := newWindow(clients, 0, getsPerClient, false)
	cls.GoOn(2, "loader", func(p *simtime.Proc) {
		k := store.NewClient(2)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%05d", i)
			if err := k.Put(p, keys[i], make([]byte, min(kv.ValueSize(), 16<<10))); err != nil {
				return
			}
		}
		// Cold and warm single-get latency.
		get := func() error { _, err := k.Get(p, keys[42]); return err }
		var err error
		if getLat, err = timeEach(p, get, get); err != nil {
			return
		}
		w.start = p.Now()
		loaded.Done(p.Env())
	})
	for th := 0; th < clients; th++ {
		node := 2 + th%2
		cls.GoOn(node, "getter", func(p *simtime.Proc) {
			loaded.Wait(p)
			k := store.NewClient(node)
			rng := xorshift(uint64(th)*31337 + 5)
			w.run(p, func() error {
				_, err := k.Get(p, keys[rng.next()%nKeys])
				return err
			})
		})
	}
	if err := cls.Run(); err != nil {
		return nil, err
	}
	el, err := w.elapsed()
	if err != nil {
		return nil, err
	}
	t.AddRow("values stored (one LMR each)", fmt.Sprintf("%d", nKeys))
	t.AddRow("cold get (RPC + LT_map + LT_read)", us(getLat[0])+" us")
	t.AddRow("warm get (LT_read only)", us(getLat[1])+" us")
	t.AddRow("8-client mixed-get throughput", reqPerUs(clients*getsPerClient, el)+" req/us")
	t.Note("2000 per-value regions would already thrash a native RNIC's key cache (Figure 4); under LITE they are free")
	return t, nil
}
