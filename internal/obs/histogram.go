package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i covers
// latencies in (UpperBound(i-1), UpperBound(i)]; the last bucket is
// unbounded above. The layout is identical for every histogram.
const NumBuckets = 36

// UpperBound returns bucket i's inclusive upper bound: 2^i microseconds
// (bucket 0 holds everything at or below 1µs, bucket 34 reaches ~17s). The
// last bucket has no upper bound and reports a negative duration here.
func UpperBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return -1 // +Inf
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 1 {
		return 0
	}
	// bits.Len64(us-1) is the smallest i with 2^i >= us, i.e. the first
	// bucket whose upper bound covers the value.
	i := bits.Len64(uint64(us - 1))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Histogram is a fixed-bucket latency histogram safe for concurrent,
// lock-free recording: Observe is a few atomic adds, and readers take a
// point-in-time Snapshot without stopping writers. All histograms share one
// bucket layout (power-of-two microsecond bounds); quantiles interpolate
// linearly inside a bucket, bounding the error by the bucket's width.
//
// The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // total observed nanoseconds
	max     atomic.Int64 // largest observed nanoseconds
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Snapshot captures the histogram's current counts. Concurrent Observes may
// land between bucket reads, so a snapshot is only guaranteed consistent
// with itself up to in-flight observations — fine for monitoring, which is
// the only consumer.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, the form quantiles
// operate on.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
}

// Quantile estimates the q-th latency quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the q-th observation. The estimate
// is clamped to the recorded maximum, so p99 of a uniform series never
// exceeds the largest value actually seen. Returns 0 on an empty histogram.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = UpperBound(i - 1)
			}
			hi := UpperBound(i)
			if hi < 0 { // unbounded last bucket: report its floor or the max
				hi = s.Max
				if hi < lo {
					hi = lo
				}
			}
			frac := (rank - cum) / float64(c)
			est := lo + time.Duration(frac*float64(hi-lo))
			if s.Max > 0 && est > s.Max {
				est = s.Max
			}
			return est
		}
		cum = next
	}
	return s.Max
}

// Mean returns the average observed latency, 0 when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
