package lite

import (
	"bytes"
	"errors"
	"testing"

	"lite/internal/clustertest"
	"lite/internal/params"
	"lite/internal/simtime"
)

// TestTenantNamespaceIsolation proves the core multi-tenant property:
// a tenant cannot map, read, or otherwise touch another tenant's LMRs,
// while its own accesses and kernel (tenant-0) accesses keep working.
func TestTenantNamespaceIsolation(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.EnableObs()
	var h LH
	ready := false
	var readyCond simtime.Cond
	cls.GoOn(0, "owner", func(p *simtime.Proc) {
		owner := dep.Instance(0).TenantClient(1)
		var err error
		h, err = owner.Malloc(p, 4096, "t1-secret", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Write(p, h, 0, []byte("tenant-1 data")); err != nil {
			t.Fatal(err)
		}
		ready = true
		readyCond.Broadcast(p.Env())

		// Another tenant on the owner's node: using the owner's handle
		// directly must be denied too (handles are per-acquirer).
		local := dep.Instance(0).TenantClient(2)
		buf := make([]byte, 4)
		if err := local.Read(p, h, 0, buf); !errors.Is(err, ErrTenantDenied) {
			t.Fatalf("cross-tenant Read error = %v, want ErrTenantDenied", err)
		}
		if err := local.Free(p, h); !errors.Is(err, ErrTenantDenied) {
			t.Fatalf("cross-tenant Free error = %v, want ErrTenantDenied", err)
		}
	})
	cls.GoOn(1, "others", func(p *simtime.Proc) {
		for !ready {
			readyCond.Wait(p)
		}
		// Another tenant on another node: Map by name must be denied
		// with the typed error.
		thief := dep.Instance(1).TenantClient(2)
		_, err := thief.Map(p, "t1-secret")
		if !errors.Is(err, ErrTenantDenied) {
			t.Fatalf("cross-tenant Map error = %v, want ErrTenantDenied", err)
		}
		var td *TenantDeniedError
		if !errors.As(err, &td) || td.Tenant != 2 || td.Owner != 1 {
			t.Fatalf("denial detail = %+v, want Tenant=2 Owner=1", td)
		}

		// The owner tenant itself maps and reads fine from anywhere.
		mine := dep.Instance(1).TenantClient(1)
		same, err := mine.Map(p, "t1-secret")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 13)
		if err := mine.Read(p, same, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("tenant-1 data")) {
			t.Fatalf("owner read back %q", got)
		}

		// Kernel (tenant 0) bypasses tenant checks, like root.
		kc := dep.Instance(1).KernelClient()
		kh, err := kc.Map(p, "t1-secret")
		if err != nil {
			t.Fatalf("kernel Map: %v", err)
		}
		if err := kc.Read(p, kh, 0, got); err != nil {
			t.Fatalf("kernel Read: %v", err)
		}
	})
	run(t, cls)
	if n := cls.Obs.Total("lite.tenant.denied"); n < 3 {
		t.Fatalf("lite.tenant.denied = %d, want >= 3", n)
	}
}

// TestTenantCanMapPublicLMR: kernel-created (tenant-0) named LMRs are
// public infrastructure — tenants may map them subject to the normal
// ACL, so shared services keep working under tenancy.
func TestTenantCanMapPublicLMR(t *testing.T) {
	cls, dep := testDep(t, 2)
	var kh LH
	ready := false
	var readyCond simtime.Cond
	cls.GoOn(0, "kernel", func(p *simtime.Proc) {
		k := dep.Instance(0).KernelClient()
		h, err := k.Malloc(p, 4096, "public-region", PermRead|PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Write(p, h, 0, []byte("shared")); err != nil {
			t.Fatal(err)
		}
		kh = h
		ready = true
		readyCond.Broadcast(p.Env())
	})
	cls.GoOn(1, "tenant", func(p *simtime.Proc) {
		for !ready {
			readyCond.Wait(p)
		}
		tc := dep.Instance(1).TenantClient(5)
		th, err := tc.Map(p, "public-region")
		if err != nil {
			t.Fatalf("tenant Map of public LMR: %v", err)
		}
		got := make([]byte, 6)
		if err := tc.Read(p, th, 0, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "shared" {
			t.Fatalf("got %q", got)
		}
		// But the tenant cannot use the kernel's own handle: handles
		// are stamped per acquirer. (The kernel's handle lives on node
		// 0; a node-0 tenant client demonstrates the denial.)
		if err := dep.Instance(0).TenantClient(5).Read(p, kh, 0, got); !errors.Is(err, ErrTenantDenied) {
			t.Fatalf("tenant use of kernel handle = %v, want ErrTenantDenied", err)
		}
	})
	run(t, cls)
}

// TestTenantRPCCarriesTenantAndCounters: a tenant client's RPC carries
// its tenant ID in the ring header to the server's Call, and per-tenant
// admitted counters tick.
func TestTenantRPCCarriesTenantAndCounters(t *testing.T) {
	cls, dep := testDep(t, 2)
	cls.EnableObs()
	inst := dep.Instance(1)
	_ = inst.RegisterRPC(echoFn)
	var seen []uint16
	cls.GoDaemonOn(1, "server", func(p *simtime.Proc) {
		c := inst.KernelClient()
		call, err := c.RecvRPC(p, echoFn)
		for err == nil {
			seen = append(seen, call.Tenant)
			call, err = c.ReplyRecvRPC(p, call, call.Input, echoFn)
		}
	})
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		tc := dep.Instance(0).TenantClient(42)
		out, err := tc.RPC(p, 1, echoFn, []byte("hello"), 64)
		if err != nil || string(out) != "hello" {
			t.Fatalf("tenant RPC: %q, %v", out, err)
		}
		kc := dep.Instance(0).KernelClient()
		if _, err := kc.RPC(p, 1, echoFn, []byte("ker"), 64); err != nil {
			t.Fatal(err)
		}
	})
	run(t, cls)
	if len(seen) != 2 || seen[0] != 42 || seen[1] != 0 {
		t.Fatalf("server saw tenants %v, want [42 0]", seen)
	}
	if n := cls.Obs.Total("lite.tenant.clients"); n != 1 {
		t.Fatalf("lite.tenant.clients = %d, want 1", n)
	}
}

// TestTenantAdmittedCounter: with fair admission on, a tenant call
// ticks its per-tenant admitted counter on the serving node.
func TestTenantAdmittedCounter(t *testing.T) {
	cfg := params.Default()
	cls := clustertest.MustNew(&cfg, 2, 1<<30)
	opts := DefaultOptions()
	opts.AdmissionHighWater = 64
	dep, err := Start(cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	cls.EnableObs()
	startEchoServer(cls, dep, 1, 2)
	cls.GoOn(0, "client", func(p *simtime.Proc) {
		tc := dep.Instance(0).TenantClient(7)
		for k := 0; k < 5; k++ {
			if _, err := tc.RPC(p, 1, echoFn, []byte("x"), 64); err != nil {
				t.Fatal(err)
			}
		}
	})
	run(t, cls)
	if n := cls.Obs.Total("lite.tenant.7.admitted"); n != 5 {
		t.Fatalf("lite.tenant.7.admitted = %d, want 5", n)
	}
}

// TestTenantQPScaling proves the shared-QP claim: the RC mesh is
// n(n-1) x QPsPerPair regardless of how many tenants attach.
func TestTenantQPScaling(t *testing.T) {
	cls, dep := testDep(t, 3)
	perNode := 0
	for i := 0; i < 3; i++ {
		perNode += cls.Nodes[i].NIC.QPCountByOwner("lite/shared-mesh")
	}
	want := 3 * 2 * DefaultOptions().QPsPerPair
	if perNode != want {
		t.Fatalf("mesh QPs = %d, want n(n-1) x K = %d", perNode, want)
	}
	// Lite tags its shared mesh; every other QP is untagged.
	qps := func() int {
		nic := cls.Nodes[0].NIC
		return nic.QPCountByOwner("lite/shared-mesh") + nic.QPCountByOwner("")
	}
	before := qps()
	for ten := uint16(1); ten <= 100; ten++ {
		_ = dep.Instance(0).TenantClient(ten)
	}
	if got := qps(); got != before {
		t.Fatalf("QP count moved %d -> %d after 100 tenants; must scale with nodes, not tenants", before, got)
	}
}

// TestSetTenantWeight covers the deployment-level weight registry.
func TestSetTenantWeight(t *testing.T) {
	_, dep := testDep(t, 2)
	if w := dep.tenantWeight(3); w != 1 {
		t.Fatalf("default weight = %d, want 1", w)
	}
	dep.SetTenantWeight(3, 4)
	dep.SetTenantWeight(0, 9) // tenant 0 is not a tenant; ignored
	dep.SetTenantWeight(5, 0) // floored to 1
	if w := dep.tenantWeight(3); w != 4 {
		t.Fatalf("weight = %d, want 4", w)
	}
	if w := dep.tenantWeight(0); w != 1 {
		t.Fatalf("tenant-0 weight = %d, want untracked 1", w)
	}
	if w := dep.tenantWeight(5); w != 1 {
		t.Fatalf("floored weight = %d, want 1", w)
	}
}
