package lite

import (
	"lite/internal/params"
	"lite/internal/simtime"
)

// Priority classifies LITE traffic for QoS purposes (§6.2).
type Priority int

// Priorities. PriHigh is the default.
const (
	PriHigh Priority = iota
	PriLow
)

// QoSMode selects the isolation policy (§6.2).
type QoSMode int

// QoS modes.
const (
	// QoSNone applies no isolation.
	QoSNone QoSMode = iota
	// QoSHWSep partitions the shared queue pairs: high priority gets
	// most of them, low priority the remainder — hardware resources
	// reserved per priority, idle or not.
	QoSHWSep
	// QoSSWPri rate-limits low-priority senders in software based on
	// high-priority load (sender-side information) and high-priority
	// RTT inflation (receiver-side information).
	QoSSWPri
)

// qosSignals is the cluster-wide QoS signal state: the high-priority
// load and latency observations every sender consults. LITE's
// management service distributes these observations; the simulation
// shares them directly (staleness is negligible at the timescales
// involved).
type qosSignals struct {
	lastHigh simtime.Time // when a high-priority op last finished
	rttEMA   float64      // smoothed high-priority op latency (ns)
	rttBase  float64      // smallest observed high-priority latency (ns)
}

// qosState is per-instance QoS bookkeeping.
type qosState struct {
	mode QoSMode
	k    int
	sig  *qosSignals
	inst *Instance

	lowNext simtime.Time // leaky-bucket horizon for low priority
}

func (q *qosState) init(inst *Instance, k int, sig *qosSignals) {
	q.inst = inst
	q.k = k
	q.sig = sig
}

// highActiveWindow is how recently a high-priority op must have run
// for SW-Pri policy 1/2 to consider the high class active.
const highActiveWindow = 1000 * 1000 // 1ms in ns

// lowRateFraction is the fraction of link bandwidth low-priority
// traffic may use while high-priority traffic is active.
const lowRateFraction = 0.15

// qpRange returns the half-open range of shared-QP indices the given
// priority may use out of n.
func (q *qosState) qpRange(pri Priority, n int) (lo, hi int) {
	if q.mode != QoSHWSep || n <= 1 {
		return 0, n
	}
	split := n * 3 / 4
	if split < 1 {
		split = 1
	}
	if split >= n {
		split = n - 1
	}
	if pri == PriHigh {
		return 0, split
	}
	return split, n
}

// throttle delays a low-priority operation of the given size according
// to the active isolation policy before it is posted.
func (q *qosState) throttle(p *simtime.Proc, pri Priority, bytes int64) {
	if pri != PriLow || bytes == 0 {
		return
	}
	var rate float64
	switch q.mode {
	case QoSHWSep:
		// Hardware partitioning: the NIC arbitrates round robin over
		// the reserved QP sets, so the low class holds its share of the
		// wire whether or not high-priority traffic exists — exactly
		// why the paper finds HW-Sep's aggregate throughput lowest.
		lo, hi := q.qpRange(PriLow, q.k)
		rate = float64(hi-lo) / float64(q.k) * q.inst.cfg.LinkBandwidth
	case QoSSWPri:
		active := q.sig.lastHigh > 0 && p.Now()-q.sig.lastHigh < highActiveWindow
		congested := q.sig.rttBase > 0 && q.sig.rttEMA > 1.5*q.sig.rttBase
		if !active && !congested {
			// Policy 2: no (or very light) high-priority load — run free.
			q.lowNext = 0
			return
		}
		// Policies 1 and 3: rate limit.
		rate = lowRateFraction * q.inst.cfg.LinkBandwidth
	default:
		return
	}
	d := params.TransferTime(bytes, rate)
	start := p.Now()
	if q.lowNext > start {
		start = q.lowNext
	}
	q.lowNext = start + d
	if start > p.Now() {
		reg := q.inst.obsReg()
		reg.Add("lite.qos.throttled", 1)
		reg.Observe("lite.qos.throttle", start-p.Now())
		p.SleepUntil(start)
	}
}

// record feeds per-op statistics into the SW-Pri controller.
func (q *qosState) record(p *simtime.Proc, pri Priority, bytes int64, rtt simtime.Time) {
	if pri != PriHigh {
		return
	}
	q.sig.lastHigh = p.Now()
	r := float64(rtt)
	if q.sig.rttBase == 0 || r < q.sig.rttBase {
		q.sig.rttBase = r
	}
	if q.sig.rttEMA == 0 {
		q.sig.rttEMA = r
	} else {
		q.sig.rttEMA = 0.9*q.sig.rttEMA + 0.1*r
	}
}

// SetQoSMode sets the isolation policy on every node.
func (d *Deployment) SetQoSMode(m QoSMode) {
	for _, inst := range d.Instances {
		inst.qos.mode = m
	}
}
