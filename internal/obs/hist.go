package obs

// Histogram is a latency histogram over virtual-time durations with
// logarithmic (power-of-two) buckets. Bucket i counts observations d
// with 2^(i-1) < d <= 2^i nanoseconds (bucket 0 holds d <= 1ns).
// Because every histogram uses the same fixed bucket layout, merging
// histograms from different nodes is exact bucket-wise addition, and
// quantiles of a merged histogram equal quantiles of the combined
// stream up to bucket resolution.
type Histogram struct {
	count   int64
	sum     Time
	min     Time
	max     Time
	buckets [nBuckets]int64
}

// nBuckets covers durations up to 2^62 ns (~146 years of virtual
// time), far beyond any simulated experiment.
const nBuckets = 63

// bucketOf returns the bucket index for duration d.
func bucketOf(d Time) int {
	if d <= 1 {
		return 0
	}
	n := uint64(d - 1)
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) Time {
	return Time(int64(1) << uint(i))
}

// Record adds one observation. Safe on a nil receiver. Negative
// durations are clamped to zero (they can only arise from caller
// bugs; dropping them silently would hide those).
func (h *Histogram) Record(d Time) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketOf(d)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min and Max return the exact extremes (not bucket bounds).
func (h *Histogram) Min() Time {
	if h == nil {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() Time {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the exact arithmetic mean, zero when empty.
func (h *Histogram) Mean() Time {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / Time(h.count)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by
// linear interpolation within the containing bucket, clamped to the
// observed [min, max]. Zero when empty.
func (h *Histogram) Quantile(q float64) Time {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank in [1, count]: the observation index the quantile lands on.
	rank := int64(q*float64(h.count-1)) + 1
	// The extremes are tracked exactly; don't approximate them from
	// bucket bounds.
	if rank <= 1 {
		return h.min
	}
	if rank >= h.count {
		return h.max
	}
	var cum int64
	for i := 0; i < nBuckets; i++ {
		n := h.buckets[i]
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := Time(0)
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			// Interpolate position of rank within this bucket.
			frac := float64(rank-cum) / float64(n)
			est := lo + Time(float64(hi-lo)*frac)
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
		cum += n
	}
	return h.max
}

// Merge adds other's observations into h bucket-wise. Safe when
// either side is nil or empty.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Clone returns a deep copy (nil in, nil out).
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}
