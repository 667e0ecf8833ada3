package bench

import (
	"errors"
	"fmt"

	"lite/internal/apps/kvstore"
	"lite/internal/lite"
	"lite/internal/load"
	"lite/internal/simtime"
	"lite/internal/tenant"
)

func init() {
	register("tenants", "1000 tenants on one shared kvstore: weighted QoS split, namespace isolation, O(nodes) QPs", tenants)
}

// The multi-tenant experiment: LITE as a shared service. A thousand
// registered tenants in three service classes (declared in the
// orion-bench-style config below) drive one kvstore deployment
// open-loop at ~2x its metadata-path capacity. The weighted tenant
// admission regime must split goodput by purchased QoS weight, one
// deliberately greedy tenant must be clamped to its class share, a
// leaked LMR name must not let one tenant map another's value, and
// the QP budget must stay n(n-1) x K — a function of nodes, never of
// tenants. Each gate is enforced as an experiment error, so the bench
// guard fails loudly if any regresses.
const tenantsConfig = `
# LITE-as-a-service isolation workload.
workload:
  name: tenants
  user-count: 1_000
  operations:
    - op: put
      weight: 60
    - op: lookup
      weight: 40
  classes:
    - name: gold
      count: 100
      weight: 4
    - name: silver
      count: 300
      weight: 2
    - name: bronze
      count: 600
      weight: 1
  greedy:
    class: bronze
    factor: 5
`

const (
	tenantsSeed    = 42
	tenantsClients = 4 // client nodes 0..3
	tenantsSrvA    = 4 // kvstore metadata servers
	tenantsSrvB    = 5
	tenantsThreads = 4   // RPC threads per server node
	tenantsRate    = 2.4 // aggregate offered load, req/us
	tenantsReqs    = 7200
)

// tenantsRun drives the configured workload and returns the parsed
// config, the built specs, per-tenant results, and the cluster (for
// the QP audit).
func tenants() (*Table, error) {
	w, err := tenant.ParseWorkload(tenantsConfig)
	if err != nil {
		return nil, err
	}
	reg := tenant.NewRegistry()
	specs, err := tenant.Build(reg, w)
	if err != nil {
		return nil, err
	}
	opts := tailOpts(32)
	cls, dep, err := newLITEOpts(tenantsClients+2, opts)
	if err != nil {
		return nil, err
	}
	reg.Attach(dep)
	st, err := kvstore.Start(cls, dep, []int{tenantsSrvA, tenantsSrvB}, tenantsThreads)
	if err != nil {
		return nil, err
	}
	// One kvstore client per tenant, spread round-robin over the client
	// nodes. The store client carries the tenant's key-namespace prefix
	// and issues through the tenant's shared-QP lite client.
	nodes := make([]int, len(specs))
	kcs := make([]*kvstore.Client, len(specs))
	for i, s := range specs {
		nodes[i] = i % tenantsClients
		kcs[i] = st.NewTenantClient(nodes[i], s.Tenant.ID)
	}
	// The leak probe runs alongside the load: the victim (first gold
	// tenant) puts a value, a root observer resolves the backing LMR
	// name — deliberately leaking it — and a bronze tenant tries to map
	// it. The lite layer must answer with the typed tenant denial.
	var leakErr error
	leakDenied := false
	victim := specs[0]
	thiefID := specs[len(specs)-1].Tenant.ID
	cls.GoOn(0, "leak-probe", func(p *simtime.Proc) {
		if err := kcs[0].Put(p, "seed", []byte("victim-value")); err != nil {
			leakErr = fmt.Errorf("victim seed put: %w", err)
			return
		}
		name, err := st.NewClient(0).ResolveName(p, fmt.Sprintf("t%d/seed", victim.Tenant.ID))
		if err != nil {
			leakErr = fmt.Errorf("root resolve: %w", err)
			return
		}
		_, err = dep.Instance(0).TenantClient(thiefID).Map(p, name)
		if errors.Is(err, lite.ErrTenantDenied) {
			leakDenied = true
		} else {
			leakErr = fmt.Errorf("cross-tenant map of %q = %v, want ErrTenantDenied", name, err)
		}
	})
	// Prime each client node's server bindings and the admission cost
	// model before the schedule opens.
	for n := 0; n < tenantsClients; n++ {
		n := n
		cls.GoOn(n, "warmup", func(p *simtime.Proc) {
			c := st.NewClient(n)
			_ = c.Put(p, fmt.Sprintf("warm-%d-a", n), []byte("w"))
			_ = c.Put(p, fmt.Sprintf("warm-%d-b", n), []byte("w"))
		})
	}
	// One aggregate Poisson arrival stream thinned across all 1000
	// tenants by QoS weight (the greedy tenant by 5x its weight), issued
	// raw — a shed must count as a shed.
	scheds := load.SplitPoissonWeighted(tenantsSeed, tenantsRate, tenantsReqs,
		simtime.Time(50_000), tenant.RateWeights(specs))
	val := []byte("0123456789abcdef")
	res := load.RunMulti(cls, nodes, scheds, func(p *simtime.Proc, issuer, k int) load.Status {
		var err error
		if w.PickOp(tenantsSeed, specs[issuer].Tenant.ID, k) == "put" {
			err = kcs[issuer].PutOnce(p, fmt.Sprintf("k%d", k%8), val)
		} else if err = kcs[issuer].LookupOnce(p, "seed"); errors.Is(err, kvstore.ErrNotFound) {
			// A miss is a served lookup: only the victim ever put "seed".
			err = nil
		}
		return statusOf(err)
	})
	if err := cls.Run(); err != nil {
		return nil, err
	}
	if leakErr != nil {
		return nil, leakErr
	}
	t := &Table{
		ID:     "tenants",
		Title:  "1000 tenants, three QoS classes, one shared kvstore at ~2x metadata capacity",
		Header: []string{"Class", "Tenants", "Weight", "Issued", "OK", "Shed", "Timeout", "OK/weight-unit", "p99 (us)"},
	}
	// Aggregate per class; the greedy tenant is reported as its own row
	// and excluded from its class's weighted-split arithmetic.
	type agg struct {
		count, weight int
		rs            []*load.Result
	}
	order := []string{}
	classes := map[string]*agg{}
	var greedy *load.Result
	var greedyW int
	for i, s := range specs {
		if s.Greedy {
			greedy = res[i]
			greedyW = s.Tenant.Weight
			continue
		}
		a := classes[s.Class]
		if a == nil {
			a = &agg{weight: s.Tenant.Weight}
			classes[s.Class] = a
			order = append(order, s.Class)
		}
		a.count++
		a.rs = append(a.rs, res[i])
	}
	perUnit := map[string]float64{}
	for _, name := range order {
		a := classes[name]
		m := load.Merge(a.rs)
		unitOK := float64(m.OK) / float64(a.count*a.weight)
		perUnit[name] = unitOK
		t.AddRow(name, fmt.Sprintf("%d", a.count), fmt.Sprintf("%d", a.weight),
			fmt.Sprintf("%d", m.Issued), fmt.Sprintf("%d", m.OK),
			fmt.Sprintf("%d", m.Shed), fmt.Sprintf("%d", m.Timeout),
			fmt.Sprintf("%.2f", unitOK), us(m.P99()))
	}
	t.AddRow("greedy(bronze,5x)", "1", fmt.Sprintf("%d", greedyW),
		fmt.Sprintf("%d", greedy.Issued), fmt.Sprintf("%d", greedy.OK),
		fmt.Sprintf("%d", greedy.Shed), fmt.Sprintf("%d", greedy.Timeout),
		fmt.Sprintf("%.2f", float64(greedy.OK)/float64(greedyW)), us(greedy.P99()))
	// Gate 1: the goodput split tracks the purchased weights within
	// 1.5x (per weight unit, max class over min class).
	lo, hi := perUnit[order[0]], perUnit[order[0]]
	for _, name := range order {
		lo, hi = min(lo, perUnit[name]), max(hi, perUnit[name])
	}
	if lo <= 0 {
		return nil, fmt.Errorf("tenants: a class got zero goodput: %v", perUnit)
	}
	ratio := hi / lo
	t.Note("weighted split: OK per weight-unit max/min = %.2f across classes (gate: <= 1.5)", ratio)
	if ratio > 1.5 {
		return nil, fmt.Errorf("tenants: weighted goodput ratio %.2f exceeds 1.5", ratio)
	}
	// Gate 2: the greedy tenant is clamped, not rewarded — its excess
	// offered load sheds instead of displacing the well-behaved classes.
	if greedy.Shed == 0 {
		return nil, fmt.Errorf("tenants: greedy tenant was never clamped (0 sheds)")
	}
	t.Note("greedy bronze tenant at 5x offered load: %d/%d sheds; isolation p99 property is tested in internal/tenant", greedy.Shed, greedy.Issued)
	// Gate 3: zero cross-tenant leaks — the live steal probe was denied.
	if !leakDenied {
		return nil, fmt.Errorf("tenants: leak probe did not observe a denial")
	}
	t.Note("leak probe: root-resolved LMR name, cross-tenant LT_map denied with ErrTenantDenied (0 leaks)")
	// Gate 4: the QP budget is a function of nodes, never of tenants.
	meshQPs := 0
	for i := range cls.Nodes {
		meshQPs += cls.Nodes[i].NIC.QPCountByOwner("lite/shared-mesh")
	}
	n := tenantsClients + 2
	want := n * (n - 1) * opts.QPsPerPair
	if meshQPs != want {
		return nil, fmt.Errorf("tenants: mesh QPs = %d, want n(n-1) x K = %d", meshQPs, want)
	}
	t.Note("QP audit: %d tenants share %d mesh QPs = n(n-1) x K with n=%d nodes, K=%d", len(specs), meshQPs, n, opts.QPsPerPair)
	return t, nil
}
