package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite histogram buckets. Bucket i
// (0 ≤ i < HistBuckets) has the cumulative upper bound 2^i microseconds,
// so the finite range spans 1µs … 2^27µs (~134s); slower observations
// land in the +Inf slot.
const HistBuckets = 28

// Histogram is a fixed log2-bucketed, lock-free latency histogram. The
// zero value is ready to use. Observe is wait-free (two atomic adds and
// a bit scan), so histograms sit directly on request hot paths.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Int64 // [HistBuckets] is the +Inf slot
	sumNS  atomic.Int64
	count  atomic.Int64
}

// bucketIndex maps a duration to its bucket. Values with bit length i
// are < 2^i µs, so they belong in the bucket with upper bound 2^i.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us))
	if idx >= HistBuckets {
		return HistBuckets // +Inf
	}
	return idx
}

// BucketBoundUS returns bucket i's cumulative upper bound in
// microseconds; the +Inf slot (i == HistBuckets) returns -1.
func BucketBoundUS(i int) int64 {
	if i >= HistBuckets {
		return -1
	}
	return int64(1) << i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram, with cumulative
// bucket counts in Prometheus style (Counts[i] = observations ≤ bound i;
// the last entry is the +Inf bucket and equals Count).
type HistSnapshot struct {
	Counts [HistBuckets + 1]int64
	SumNS  int64
	Count  int64
}

// Snapshot returns cumulative bucket counts. Because the per-bucket
// counts are read without a global lock, a snapshot taken concurrently
// with Observe may momentarily undercount Count relative to the buckets;
// Snapshot clamps so the invariants (monotone buckets, +Inf == Count)
// always hold.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var cum int64
	for i := 0; i <= HistBuckets; i++ {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	s.SumNS = h.sumNS.Load()
	s.Count = h.count.Load()
	if s.Count < cum {
		s.Count = cum
	} else if s.Count > cum {
		// Observations whose bucket increment hasn't landed yet.
		s.Counts[HistBuckets] = s.Count
		for i := HistBuckets - 1; i >= 0 && s.Counts[i] > s.Count; i-- {
			s.Counts[i] = s.Count
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket containing the target rank, in seconds. An empty snapshot
// returns 0; ranks landing in the +Inf bucket return the largest finite
// bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	for i := 0; i < HistBuckets; i++ {
		if s.Counts[i] >= rank {
			return float64(BucketBoundUS(i)) / 1e6
		}
	}
	return float64(BucketBoundUS(HistBuckets-1)) / 1e6
}
