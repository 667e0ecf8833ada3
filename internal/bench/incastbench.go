// The incast experiment synchronizes ~200 clients onto one server's
// leaf downlink: every round, all clients fire a 4 KB request at the
// same virtual instant, so the aggregate burst must serialize through
// the victim leaf's oversubscribed spine downlinks before the NIC ever
// sees it. The fabric occupancy probes (DownlinkBusy vs IngressBusy)
// gate that the fabric — not the NIC — is the measured bottleneck,
// and fair admission must keep the victim's p99 bounded against the
// burst. Run twice per seed; the runs must agree bit-for-bit.
package bench

import (
	"fmt"
	"time"

	"lite/internal/lite"
	"lite/internal/obs"
	"lite/internal/simtime"
)

func init() {
	register("incast", "Incast fan-in: 200 synchronized clients onto one server's leaf downlink", runIncast)
}

const (
	incastNodes     = 500
	incastLeafNodes = 25
	incastSpines    = 2 // few, slow uplinks: the downlink is the choke point
	incastVictim    = 1 // the server everyone converges on (leaf 0)
	incastClients   = 200
	incastRounds    = 24
	incastReqBytes  = 4096
	incastPeriod    = 500 * time.Microsecond
	incastFn        = lite.FirstUserFunc
	// incastP99Bound caps the admitted victim p99 per call
	// (first attempt to success, shed-retries included).
	incastP99Bound = 500 * time.Microsecond
	// incastFabricMargin is how much busier the victim leaf's downlinks
	// must be than its NIC ingress for the run to count as fabric-bound.
	incastFabricMargin = 2.0
)

type incastOutcome struct {
	events       int64
	virtual      simtime.Time
	ops          int64
	errs         int64
	sheds        int64
	p50, p99     simtime.Time
	downlinkBusy simtime.Time // sum over spines into the victim leaf
	ingressBusy  simtime.Time // the victim NIC's own serialization
}

func runIncastOnce() (incastOutcome, error) {
	cfg := closCfg(incastLeafNodes, incastSpines)
	// Slow the uplinks to a quarter of the host link rate: the two
	// downlinks into the victim leaf aggregate to half a NIC, so the
	// fan-in queues in the fabric, not the NIC.
	cfg.ClosUplinkBandwidth = cfg.LinkBandwidth / 4
	opts := hubOpts(incastVictim)
	opts.AdmissionHighWater = 64
	cls, dep, err := newLITECfg(&cfg, incastNodes, opts)
	if err != nil {
		return incastOutcome{}, err
	}
	if err := dep.Instance(incastVictim).ServeRPC(incastFn, 8, func(*simtime.Proc, *lite.Call) []byte { return []byte{1} }); err != nil {
		return incastOutcome{}, err
	}

	var out incastOutcome
	hist := &obs.Histogram{}
	req := make([]byte, incastReqBytes)
	for i := range req {
		req[i] = byte(i)
	}
	// Clients live on leaves 1..8 — every request crosses the spines
	// into the victim's leaf.
	for ci := 0; ci < incastClients; ci++ {
		node := incastLeafNodes + ci
		lc := dep.Instance(node).KernelClient()
		cls.GoOn(node, "incast-client", func(p *simtime.Proc) {
			for r := 0; r < incastRounds; r++ {
				p.SleepUntil(simtime.Time(incastPeriod) * simtime.Time(r+1))
				t0 := p.Now()
				err := resubmit(p, &out.sheds, func() error {
					_, err := lc.RPCRetry(p, incastVictim, incastFn, req, 8)
					return err
				})
				out.ops++
				if err != nil {
					out.errs++
				} else {
					hist.Record(p.Now() - t0)
				}
			}
		})
	}
	if err := cls.Run(); err != nil {
		return incastOutcome{}, err
	}
	out.p50, out.p99 = hist.Quantile(0.5), hist.Quantile(0.99)
	for sp := 0; sp < incastSpines; sp++ {
		out.downlinkBusy += cls.Fab.DownlinkBusy(sp, incastVictim/incastLeafNodes)
	}
	out.ingressBusy = cls.Fab.IngressBusy(incastVictim)
	out.events = cls.Env.Events()
	out.virtual = cls.Env.Now()
	return out, nil
}

func runIncast() (*Table, error) {
	a, err := replay("incast", runIncastOnce)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "incast",
		Title:  "Incast fan-in: 200 synchronized 4KB requests per round onto one server",
		Header: []string{"metric", "value"},
	}
	tab.AddRow("ops", fmt.Sprintf("%d", a.ops))
	tab.AddRow("errs", fmt.Sprintf("%d", a.errs))
	tab.AddRow("sheds", fmt.Sprintf("%d", a.sheds))
	tab.AddRow("p50_us", us(a.p50))
	tab.AddRow("p99_us", us(a.p99))
	tab.AddRow("downlink_busy_us", us(a.downlinkBusy))
	tab.AddRow("nic_ingress_busy_us", us(a.ingressBusy))
	ratio := 0.0
	if a.ingressBusy > 0 {
		ratio = float64(a.downlinkBusy) / float64(a.ingressBusy)
	}
	tab.AddRow("fabric_over_nic", fmt.Sprintf("%.2f", ratio))
	tab.Note("topology: %d nodes, %d spines, uplinks at 1/4 host rate: the victim leaf's aggregate downlink is half a NIC, so the burst serializes in the fabric",
		incastNodes, incastSpines)
	tab.Note("%d clients x %d rounds, one %dB request per round fired at the same virtual instant; fair admission absorbs the bursts", incastClients, incastRounds, incastReqBytes)

	if a.errs != 0 {
		return tab, fmt.Errorf("incast: %d calls failed", a.errs)
	}
	if ratio < incastFabricMargin {
		return tab, fmt.Errorf("incast: downlink busy only %.2fx NIC ingress busy, want >= %.1fx (fabric is not the bottleneck)", ratio, incastFabricMargin)
	}
	if a.p99 > simtime.Time(incastP99Bound) {
		return tab, fmt.Errorf("incast: victim p99 %s us exceeds bound %v", us(a.p99), incastP99Bound)
	}
	return tab, nil
}
