// Package tenant turns a LITE deployment into LITE-as-a-service: a
// registry of named tenants with credentials and QoS weights, scoped
// clients whose LMRs and RPCs live in per-tenant namespaces, and a
// declarative workload config for driving isolation experiments at the
// ~1000-user scale.
//
// The package is deliberately thin over internal/lite: a tenant ID is
// lite's uint16 namespace tag, a weight is lite's weighted-credit
// admission share, and a tenant client is lite's TenantClient. What
// tenant adds is the control plane — who exists and how much service
// they bought (Weight) — plus the workload machinery the multi-tenant
// experiments share.
package tenant

import (
	"errors"
	"fmt"

	"lite/internal/lite"
)

// Tenant IDs are uint16 with 0 reserved for the kernel/untenanted
// class, so a registry can hold at most 65535 tenants.
const maxTenants = 1<<16 - 1

// Errors returned by the registry.
var (
	ErrExists = errors.New("tenant: name already registered")
	ErrFull   = errors.New("tenant: registry full")
)

// Tenant is one registered tenant: a stable ID (the namespace tag
// carried in ring headers and stamped on handles), a human name, and
// the QoS weight its service class bought.
type Tenant struct {
	ID     uint16
	Name   string
	Weight int

	secret string
}

// Registry is the tenant control plane. IDs are assigned sequentially
// from 1 in registration order, so a fixed registration sequence gives
// identical IDs on every run — determinism the simulation's replay
// guarantee depends on.
type Registry struct {
	byName map[string]*Tenant
	byID   []*Tenant // index = ID-1
}

// NewRegistry returns an empty tenant registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Tenant)}
}

// Register creates a tenant with the given credentials and QoS weight
// (floored at 1) and returns it. Names must be unique.
func (r *Registry) Register(name, secret string, weight int) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("tenant: empty name")
	}
	if _, ok := r.byName[name]; ok {
		return nil, ErrExists
	}
	if len(r.byID) >= maxTenants {
		return nil, ErrFull
	}
	if weight < 1 {
		weight = 1
	}
	t := &Tenant{ID: uint16(len(r.byID) + 1), Name: name, Weight: weight, secret: secret}
	r.byName[name] = t
	r.byID = append(r.byID, t)
	return t, nil
}

// Attach pushes every registered tenant's QoS weight into the
// deployment's admission control, in ID order (deterministic).
func (r *Registry) Attach(dep *lite.Deployment) {
	for _, t := range r.byID {
		dep.SetTenantWeight(t.ID, t.Weight)
	}
}
