package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/reptile/api"
)

// Endpoint identifies one served route. The set is closed so per-endpoint
// counters live in fixed arrays and the hot path touches no maps or locks.
type Endpoint int

// The instrumented endpoints, in the order they render.
const (
	EndpointRegister Endpoint = iota
	EndpointListDatasets
	EndpointAppend
	EndpointCreateSession
	EndpointReleaseSession
	EndpointRecommend
	EndpointDrill
	EndpointStats
	EndpointMetricsScrape
	EndpointHealthz
	NumEndpoints
)

var endpointNames = [NumEndpoints]string{
	"register", "list_datasets", "append", "create_session",
	"release_session", "recommend", "drill", "stats", "metrics", "healthz",
}

// String returns the endpoint's stable label (used in metrics and stats).
func (e Endpoint) String() string {
	if e < 0 || e >= NumEndpoints {
		return "unknown"
	}
	return endpointNames[e]
}

// codeIndex is c's position in api.ErrorCodes, the closed set of error
// classes counted per endpoint, in render order.
func codeIndex(c api.ErrorCode) int {
	for i, ec := range api.ErrorCodes {
		if ec == c {
			return i
		}
	}
	return len(api.ErrorCodes) - 1 // unknown classes count as internal
}

// EndpointMetrics is one endpoint's counters: total requests, errors by api
// error code, requests currently in flight, the latency histogram, and — for
// endpoints backed by the recommendation cache — hit/miss counters. Every
// field is atomic; recording takes no locks.
type EndpointMetrics struct {
	Requests atomic.Uint64
	InFlight atomic.Int64
	Latency  Histogram
	errors   [len(api.ErrorCodes)]atomic.Uint64 // indexed by codeIndex

	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
}

// RecordError counts one error response of the given class.
func (m *EndpointMetrics) RecordError(c api.ErrorCode) { m.errors[codeIndex(c)].Add(1) }

// Errors returns the per-code error counts as a map keyed by code string,
// omitting zero entries.
func (m *EndpointMetrics) Errors() map[string]uint64 {
	out := make(map[string]uint64)
	for i, ec := range api.ErrorCodes {
		if n := m.errors[i].Load(); n > 0 {
			out[string(ec)] = n
		}
	}
	return out
}

// stageAgg accumulates one stage's total duration across requests.
type stageAgg struct {
	count atomic.Uint64
	ns    atomic.Int64
}

// Registry is the server's observability root: per-endpoint counters and
// histograms plus the aggregated per-stage timing totals of the recommend
// pipeline. One registry lives for the server's lifetime; the zero value of
// every counter is the starting state.
type Registry struct {
	Start     time.Time
	endpoints [NumEndpoints]EndpointMetrics

	// stages maps stage name → aggregate. Stage names form a small closed
	// set in practice, so the map stabilizes after the first requests; the
	// read lock is only contended with the insertion of a brand-new name.
	mu     sync.RWMutex
	stages map[string]*stageAgg
	order  []string // stage names in first-seen order
}

// NewRegistry builds a registry whose uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{Start: time.Now(), stages: make(map[string]*stageAgg)}
}

// Endpoint returns the counters of one endpoint.
func (r *Registry) Endpoint(e Endpoint) *EndpointMetrics { return &r.endpoints[e] }

// ObserveStages folds one request's exclusive stage decomposition into the
// aggregated per-stage totals.
func (r *Registry) ObserveStages(stages []Stage) {
	for _, st := range stages {
		r.mu.RLock()
		agg, ok := r.stages[st.Name]
		r.mu.RUnlock()
		if !ok {
			r.mu.Lock()
			if agg, ok = r.stages[st.Name]; !ok {
				agg = &stageAgg{}
				r.stages[st.Name] = agg
				r.order = append(r.order, st.Name)
			}
			r.mu.Unlock()
		}
		agg.count.Add(1)
		agg.ns.Add(int64(st.Dur))
	}
}

// StageTotal is one stage's aggregate across requests.
type StageTotal struct {
	Name  string
	Count uint64
	Total time.Duration
}

// StageTotals snapshots the aggregated stage timings in first-seen order.
func (r *Registry) StageTotals() []StageTotal {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]StageTotal, 0, len(r.order))
	for _, name := range r.order {
		agg := r.stages[name]
		out = append(out, StageTotal{
			Name:  name,
			Count: agg.count.Load(),
			Total: time.Duration(agg.ns.Load()),
		})
	}
	return out
}
