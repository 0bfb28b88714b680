package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsCoverValues(t *testing.T) {
	cases := []time.Duration{
		0, time.Nanosecond, time.Microsecond, 2 * time.Microsecond,
		3 * time.Microsecond, time.Millisecond, 20 * time.Millisecond,
		time.Second, 30 * time.Second, time.Hour,
	}
	for _, d := range cases {
		i := bucketOf(d)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketOf(%v) = %d out of range", d, i)
		}
		if ub := UpperBound(i); ub >= 0 && d > ub {
			t.Errorf("bucketOf(%v) = %d but upper bound %v is below the value", d, i, ub)
		}
		if i > 0 {
			if lb := UpperBound(i - 1); d <= lb && i != NumBuckets-1 {
				t.Errorf("bucketOf(%v) = %d but lower bound %v already covers it", d, i, lb)
			}
		}
	}
}

// TestQuantileWithinBucketBounds checks the estimator's contract: for a known
// sample the estimated quantile must land inside the bucket holding the true
// quantile, i.e. within a factor of two (the bucket width), and never above
// the recorded maximum.
func TestQuantileWithinBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]time.Duration, 10_000)
	for i := range samples {
		// Log-uniform over ~50µs..500ms, the realistic serving range.
		d := time.Duration(float64(50*time.Microsecond) * float64(uint(1)<<uint(rng.Intn(14))))
		d += time.Duration(rng.Int63n(int64(d)))
		samples[i] = d
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	if s.Max != samples[len(samples)-1] {
		t.Fatalf("max = %v, want %v", s.Max, samples[len(samples)-1])
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		truth := samples[int(q*float64(len(samples)))-1]
		est := s.Quantile(q)
		lo, hi := truth/2, 2*truth
		if est < lo || est > hi {
			t.Errorf("q=%v: estimate %v outside bucket-bounded range [%v, %v] around true %v", q, est, lo, hi, truth)
		}
		if est > s.Max {
			t.Errorf("q=%v: estimate %v exceeds recorded max %v", q, est, s.Max)
		}
	}
	if got := s.Quantile(1); got > s.Max {
		t.Errorf("p100 = %v exceeds max %v", got, s.Max)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got <= 0 || got > 3*time.Millisecond {
			t.Errorf("single-sample q=%v = %v, want in (0, 3ms]", q, got)
		}
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many goroutines
// while a reader snapshots — primarily a -race canary for the lock-free
// recording path.
func TestHistogramConcurrentWriters(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				_ = s.Quantile(0.95)
				_ = s.Mean()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
}
