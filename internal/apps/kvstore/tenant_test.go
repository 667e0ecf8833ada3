package kvstore

import (
	"errors"
	"testing"

	"lite/internal/clustertest"
	"lite/internal/lite"
	"lite/internal/params"
	"lite/internal/simtime"
)

// TestTenantNamespaces proves the store's multi-tenant story end to
// end: tenants get disjoint key namespaces over one shared store, a
// tenant's value LMRs are unmappable by other tenants even when the
// LMR name leaks, forged key prefixes bounce off the transport's
// tenant label, and kernel clients retain root-like reach.
func TestTenantNamespaces(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	cls.EnableObs()
	dep, err := lite.Start(cls, lite.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Start(cls, dep, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := st.NewTenantClient(0, 1)
	b := st.NewTenantClient(0, 2)
	k := st.NewClient(0)
	cls.GoOn(0, "tenants", func(p *simtime.Proc) {
		if err := a.Put(p, "secret", []byte("alpha")); err != nil {
			t.Errorf("tenant 1 put: %v", err)
			return
		}
		if v, err := a.Get(p, "secret"); err != nil || string(v) != "alpha" {
			t.Errorf("tenant 1 get = %q, %v", v, err)
		}
		// Same key, different tenant: a disjoint namespace, not a
		// collision.
		if _, err := b.Get(p, "secret"); !errors.Is(err, ErrNotFound) {
			t.Errorf("tenant 2 get of tenant 1 key = %v, want ErrNotFound", err)
		}
		if err := b.Put(p, "secret", []byte("beta")); err != nil {
			t.Errorf("tenant 2 put: %v", err)
			return
		}
		if v, err := b.Get(p, "secret"); err != nil || string(v) != "beta" {
			t.Errorf("tenant 2 get = %q, %v", v, err)
		}
		if v, err := a.Get(p, "secret"); err != nil || string(v) != "alpha" {
			t.Errorf("tenant 1 get after tenant 2 put = %q, %v", v, err)
		}
		// Even with the LMR name in hand (leaked via a root observer),
		// another tenant cannot map the value: the lite layer denies
		// cross-tenant maps with a typed error.
		name, err := k.ResolveName(p, "t1/secret")
		if err != nil || name == "" {
			t.Errorf("kernel resolve of tenant key: %q, %v", name, err)
			return
		}
		if _, err := dep.Instance(0).TenantClient(2).Map(p, name); !errors.Is(err, lite.ErrTenantDenied) {
			t.Errorf("cross-tenant map = %v, want ErrTenantDenied", err)
		}
		// Forging another tenant's key prefix in the request body fails:
		// the server checks the prefix against the transport's tenant.
		req := encodeRequest(request{op: opLookup, key: "t1/secret"})
		out, err := dep.Instance(0).TenantClient(2).RPC(p, 1, kvFn, req, 512)
		resp, ok := decodeReply(opLookup, out)
		if err != nil || !ok || resp.ok {
			t.Errorf("forged-prefix lookup = %+v, %v; want OK=false", resp, err)
		}
		// Kernel clients are root: they can read any tenant's values.
		if v, err := k.Get(p, "t1/secret"); err != nil || string(v) != "alpha" {
			t.Errorf("kernel get of tenant value = %q, %v", v, err)
		}
		// Raw single-shot ops share the namespace rules.
		if err := a.PutOnce(p, "raw", []byte("r")); err != nil {
			t.Errorf("PutOnce: %v", err)
		}
		if err := a.LookupOnce(p, "raw"); err != nil {
			t.Errorf("LookupOnce: %v", err)
		}
		if err := b.LookupOnce(p, "raw"); !errors.Is(err, ErrNotFound) {
			t.Errorf("cross-tenant LookupOnce = %v, want ErrNotFound", err)
		}
	})
	if err := cls.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cls.Obs.Total("lite.tenant.denied"); got < 1 {
		t.Fatalf("lite.tenant.denied = %d, want >= 1", got)
	}
}

// A server formats each tenant's key prefix once and hands back the
// same bytes tenantPrefix does.
func TestServerTenantPrefixIsCached(t *testing.T) {
	srv := &server{}
	for _, ten := range []uint16{1, 42, 65535, 42} {
		if got, want := srv.tenantPrefix(ten), tenantPrefix(ten); got != want {
			t.Errorf("tenant %d: prefix %q, want %q", ten, got, want)
		}
	}
	if len(srv.prefixes) != 3 {
		t.Errorf("%d prefixes cached for 3 tenants", len(srv.prefixes))
	}
}
