package tenant

import (
	"errors"
	"testing"

	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

func TestRegistryRegisterAuthLookup(t *testing.T) {
	r := NewRegistry()
	a, err := r.Register("acme", "pw-a", 4)
	if err != nil || a.ID != 1 || a.Weight != 4 {
		t.Fatalf("register: %+v, %v", a, err)
	}
	b, err := r.Register("bmart", "pw-b", 0) // weight floors to 1
	if err != nil || b.ID != 2 || b.Weight != 1 {
		t.Fatalf("register: %+v, %v", b, err)
	}
	if _, err := r.Register("acme", "other", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name error = %v", err)
	}
	if _, err := r.Register("", "x", 1); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if got, err := r.Auth("acme", "pw-a"); err != nil || got != a {
		t.Fatalf("auth: %+v, %v", got, err)
	}
	if _, err := r.Auth("acme", "wrong"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad secret error = %v", err)
	}
	if _, err := r.Auth("ghost", "pw"); !errors.Is(err, ErrAuth) {
		t.Fatalf("unknown name error = %v", err)
	}
	if r.Lookup(1) != a || r.Lookup(0) != nil || r.Lookup(9) != nil {
		t.Fatal("lookup inconsistent")
	}
	if len(r.byID) != 2 {
		t.Fatalf("len = %d", len(r.byID))
	}
}

func TestRegistryAttachAndClient(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	a, _ := r.Register("acme", "pw", 4)
	r.Attach(dep)
	if got, err := r.Auth("acme", "pw"); err != nil || got != a {
		t.Fatalf("auth: %+v, %v", got, err)
	}
	if _, err := r.Auth("acme", "nope"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad secret error = %v", err)
	}
}

func TestBuildSpecs(t *testing.T) {
	w, err := ParseWorkload(goodConfig)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	specs, err := Build(reg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1000 || len(reg.byID) != 1000 {
		t.Fatalf("specs = %d, registered = %d", len(specs), len(reg.byID))
	}
	// Specs are ordered by ID; classes appear in config order.
	if specs[0].Class != "gold" || specs[0].Tenant.ID != 1 || specs[0].Tenant.Weight != 4 {
		t.Fatalf("first spec = %+v", specs[0])
	}
	if specs[999].Class != "bronze" || specs[999].Tenant.ID != 1000 {
		t.Fatalf("last spec = %+v", specs[999])
	}
	// Exactly one greedy tenant: the first bronze, at 5x its class rate.
	greedy := 0
	for _, s := range specs {
		if s.Greedy {
			greedy++
			if s.Class != "bronze" || s.RateWeight != 5 {
				t.Fatalf("greedy spec = %+v", s)
			}
		}
	}
	if greedy != 1 {
		t.Fatalf("greedy count = %d", greedy)
	}
	// Registered credentials authenticate.
	if _, err := reg.Auth("gold-0", Secret("gold-0")); err != nil {
		t.Fatal(err)
	}
	ws := RateWeights(specs)
	if len(ws) != 1000 || ws[0] != 4 || ws[999] != 1 {
		t.Fatalf("rate weights: %v %v %v", len(ws), ws[0], ws[999])
	}
	// Building again collides on names.
	if _, err := Build(reg, w); !errors.Is(err, ErrExists) {
		t.Fatalf("rebuild error = %v", err)
	}
	if _, err := Build(NewRegistry(), &Workload{Name: "x", UserCount: 1}); err == nil {
		t.Fatal("classless workload must be rejected")
	}
}

func TestPickOpDeterministicAndMixed(t *testing.T) {
	w := &Workload{
		Name: "x", UserCount: 1,
		Operations: []Op{{"put", 60}, {"lookup", 40}},
	}
	counts := map[string]int{}
	for k := 0; k < 1000; k++ {
		op := w.PickOp(42, 7, k)
		if op != w.PickOp(42, 7, k) {
			t.Fatal("PickOp not deterministic")
		}
		counts[op]++
	}
	if counts["put"] < 500 || counts["put"] > 700 {
		t.Fatalf("put share %d/1000, want ~600", counts["put"])
	}
	if counts["put"]+counts["lookup"] != 1000 {
		t.Fatalf("unknown ops: %v", counts)
	}
	// Different tenants see different streams.
	same := 0
	for k := 0; k < 100; k++ {
		if w.PickOp(42, 1, k) == w.PickOp(42, 2, k) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("tenant streams identical")
	}
	if (&Workload{}).PickOp(1, 1, 1) != "" {
		t.Fatal("no-ops workload must return empty op")
	}
}

// smokeRPC drives one tenant RPC through a live deployment so the
// package's client path is exercised end to end.
func TestTenantClientRPCSmoke(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if _, err := r.Register("acme", "pw", 2); err != nil {
		t.Fatal(err)
	}
	r.Attach(dep)
	const fn = lite.FirstUserFunc
	if err := dep.Instance(1).ServeRPC(fn, 1, func(p *simtime.Proc, c *lite.Call) []byte {
		return append([]byte("t:"), byte(c.Tenant))
	}); err != nil {
		t.Fatal(err)
	}
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		a, err := r.Auth("acme", "pw")
		if err != nil {
			t.Error(err)
			return
		}
		out, err := dep.Instance(0).TenantClient(a.ID).RPC(p, 1, fn, []byte("hi"), 64)
		if err != nil || len(out) != 3 || out[2] != 1 {
			t.Errorf("rpc = %q, %v", out, err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
}
