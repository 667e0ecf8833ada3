package tenant

import "errors"

// ErrAuth is Auth's error for an unknown tenant or a bad secret.
var ErrAuth = errors.New("tenant: unknown tenant or bad secret")

// Auth validates a tenant's credentials and returns its identity.
// Unknown names and wrong secrets return the same error, so a caller
// cannot probe which names exist.
func (r *Registry) Auth(name, secret string) (*Tenant, error) {
	t := r.byName[name]
	if t == nil || t.secret != secret {
		return nil, ErrAuth
	}
	return t, nil
}

// Lookup returns the tenant with the given ID, nil if unregistered.
func (r *Registry) Lookup(id uint16) *Tenant {
	if id < 1 || int(id) > len(r.byID) {
		return nil
	}
	return r.byID[id-1]
}
