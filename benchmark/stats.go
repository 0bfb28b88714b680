package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample array by
// linear interpolation between the two closest ranks. Latencies are kept as
// exact samples, never bucketed, so the value is exact for the run.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// samples is a concurrency-safe set of named sample arrays: every timing the
// benchmark takes lands here under the name of the quantity it measures.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: make(map[string][]float64)} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

// copyPrefix appends every sample array whose name starts with prefix to
// dst, under the same name.
func (s *samples) copyPrefix(dst *samples, prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, xs := range s.m {
		if strings.HasPrefix(name, prefix) {
			for _, x := range xs {
				dst.add(name, x)
			}
		}
	}
}

// copyAs appends the samples of from under the name to.
func (s *samples) copyAs(from, to string) {
	for _, x := range s.get(from) {
		s.add(to, x)
	}
}

// heapSampler samples live-plus-unswept heap-object bytes every 20 ms during
// a window. The time average is the steady end-to-end number; the peak
// depends on where collections happen to fall and is reported per layer.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
	peak uint64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func readHeapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) sample() {
	v := readHeapObjects()
	h.sum += float64(v)
	h.n++
	if v > h.peak {
		h.peak = v
	}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the mean and the peak in MB (10^6
// bytes).
func (h *heapSampler) finish() (meanMB, peakMB float64) {
	close(h.stop)
	<-h.done
	h.sample()
	return h.sum / float64(h.n) / 1e6, float64(h.peak) / 1e6
}

// runtimeCounters is a snapshot of the allocator and collector counters the
// runtime.* per-layer metrics are deltas of.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCycles                 uint32
	gcPauseNs                uint64
}

func readRuntimeCounters() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{allocBytes: m.TotalAlloc, allocObjects: m.Mallocs, gcCycles: m.NumGC, gcPauseNs: m.PauseTotalNs}
}
