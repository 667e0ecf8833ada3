package lite

import (
	"fmt"

	"lite/internal/obs"
	"lite/internal/simtime"
)

// Observability plumbing. The registry pointer is read from the node
// on every event (never cached at Start) so cluster.EnableObs works
// whenever it is called; with observability off every call below is a
// nil-receiver no-op. Nothing here advances virtual time: a traced
// run and an untraced run produce identical timelines.

// obsReg returns the node's metric registry, nil when observability
// is disabled.
func (i *Instance) obsReg() *obs.Registry { return i.node.Obs }

// procSpan returns the process's active trace span, if any.
func procSpan(p *simtime.Proc) *obs.Span {
	s, _ := p.Trace().(*obs.Span)
	return s
}

// sleepSpan sleeps d and records the wait as a span under the
// process's active trace, so time an op spends waiting on purpose
// (retry back-off, pacing) is attributed to a name instead of showing
// up as a gap in the op's span tree.
func (i *Instance) sleepSpan(p *simtime.Proc, d simtime.Time, name string) {
	t0 := p.Now()
	p.Sleep(d)
	i.obsReg().AddSpan(t0, p.Now(), name, procSpan(p))
}

// noopEnd is returned by rootSpan when tracing is off, so the
// disabled path allocates nothing.
var noopEnd = func() {}

// Per-tenant counter kinds for tenantCount.
const (
	tenObsAdmit = iota
	tenObsDenied
)

// tenantCtrNames caches the formatted per-tenant counter names so the
// hot path never re-formats them; built lazily per tenant, bounded by
// the number of tenants that actually send traffic through this node.
type tenantCtrNames struct {
	admitted string
	shed     string
	denied   string
}

// tenantCount bumps a tenant-labeled counter. Everything — including
// the lazy name formatting — is guarded behind the registry nil check,
// so the disabled path stays allocation- and format-free.
func (i *Instance) tenantCount(ten uint16, kind int, ok bool) {
	reg := i.obsReg()
	if reg == nil {
		return
	}
	n := i.tenantCtrs[ten]
	if n == nil {
		n = &tenantCtrNames{
			admitted: fmt.Sprintf("lite.tenant.%d.admitted", ten),
			shed:     fmt.Sprintf("lite.tenant.%d.shed", ten),
			denied:   fmt.Sprintf("lite.tenant.%d.denied", ten),
		}
		if i.tenantCtrs == nil {
			i.tenantCtrs = make(map[uint16]*tenantCtrNames)
		}
		i.tenantCtrs[ten] = n
	}
	switch kind {
	case tenObsAdmit:
		if ok {
			reg.Add(n.admitted, 1)
		} else {
			reg.Add(n.shed, 1)
		}
	case tenObsDenied:
		reg.Add("lite.tenant.denied", 1)
		reg.Add(n.denied, 1)
	}
}

// rootSpan opens a span and installs it as the process's active trace
// context, so every layer the call passes through (hostos crossings,
// ring posts, NIC pipelines) hangs its spans underneath. The returned
// func closes the span and restores the previous context.
func (i *Instance) rootSpan(p *simtime.Proc, name string) func() {
	root := i.obsReg().StartSpan(p.Now(), name, procSpan(p))
	if root == nil {
		return noopEnd
	}
	prev := p.Trace()
	p.SetTrace(root)
	return func() {
		root.Done(p.Now())
		p.SetTrace(prev)
	}
}
