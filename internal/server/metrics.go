package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/reptile/api"
)

// statusWriter captures the response status (and, through writeError, the api
// error code) of one request so the instrumentation middleware can count
// errors by class rather than by bare HTTP status.
type statusWriter struct {
	http.ResponseWriter
	status int
	code   api.ErrorCode
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// newRequestID returns a fresh request correlation id (echoed in the
// X-Reptile-Request-Id header and the request log).
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r_unavailable"
	}
	return "r_" + hex.EncodeToString(b[:])
}

// instrument wraps one route with the observability middleware: request and
// in-flight counters, the latency histogram, per-error-code counters, a
// request id header, optional structured request logging, and — on the
// recommend endpoint — a stage trace carried in the request context for both
// the handler's serving-layer spans and the engine's SpanRecorder seam.
func (s *Server) instrument(ep obs.Endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.obs.Endpoint(ep)
		m.Requests.Add(1)
		m.InFlight.Add(1)
		defer m.InFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		reqID := newRequestID()
		sw.Header().Set("X-Reptile-Request-Id", reqID)
		var tr *obs.Trace
		if ep == obs.EndpointRecommend {
			tr = obs.NewTrace()
			// The trace rides the context twice: once for the serving-layer
			// spans (TraceFrom), once as the engine's SpanRecorder so
			// internal/core records its pipeline phases without importing obs.
			ctx := obs.ContextWithTrace(r.Context(), tr)
			ctx = core.WithSpanRecorder(ctx, tr)
			r = r.WithContext(ctx)
		}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		m.Latency.Observe(d)
		if tr != nil {
			s.obs.ObserveStages(tr.Stages())
		}
		if sw.status >= 400 {
			code := sw.code
			if code == "" {
				code = api.CodeForStatus(sw.status)
			}
			m.RecordError(code)
		}
		if lg := s.cfg.RequestLog; lg != nil {
			lg.Info("request",
				"id", reqID,
				"endpoint", ep.String(),
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_ms", float64(d)/float64(time.Millisecond),
			)
		}
	}
}

// goRuntime is the Go runtime's garbage-collector state, read from
// runtime/metrics when a scrape asks and kept nowhere between scrapes.
func goRuntime() []obs.Gauge {
	out := []obs.Gauge{
		{Name: "reptile_go_gc_cycles_total", Help: "Completed GC cycles.", Counter: true},
		{Name: "reptile_go_gc_cpu_seconds_total", Help: "Estimated CPU time spent in GC tasks.", Counter: true},
		{Name: "reptile_go_heap_allocs_bytes_total", Help: "Bytes allocated on the heap.", Counter: true},
		{Name: "reptile_go_heap_live_bytes", Help: "Heap bytes live after the last GC cycle."},
	}
	samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i].Value = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i].Value = s.Value.Float64()
		}
	}
	return out
}

// handleMetrics serves the Prometheus text exposition: every endpoint's
// request/error/in-flight counters and latency histogram, the recommend
// pipeline's per-stage totals, registry-level gauges and the Go runtime's GC
// state. The handler takes no recommendation slot, so metrics stay scrapable
// while every dataset is at its concurrency limit.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.sweepExpiredLocked(s.now())
	nd, ns := len(s.engines), len(s.sessions)
	s.mu.Unlock()
	cs := s.cacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WriteProm(w, append([]obs.Gauge{
		{Name: "reptile_datasets", Help: "Registered datasets.", Value: float64(nd)},
		{Name: "reptile_sessions", Help: "Live drill-down sessions.", Value: float64(ns)},
		{Name: "reptile_recommend_cache_entries", Help: "Recommendation cache size in entries.", Value: float64(cs.Size)},
	}, goRuntime()...))
}

// serverInfo identifies the process for GET /v1/stats.
func (s *Server) serverInfo() api.ServerInfo {
	return api.ServerInfo{
		Version:       s.cfg.Version,
		GoVersion:     runtime.Version(),
		StartTime:     s.obs.Start.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(s.obs.Start).Seconds(),
	}
}

// latencySummary derives the stats-payload quantile summary from a histogram
// snapshot.
func latencySummary(snap obs.HistSnapshot) api.LatencySummary {
	toMS := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return api.LatencySummary{
		Count:  snap.Count,
		MeanMS: toMS(snap.Mean()),
		P50MS:  toMS(snap.Quantile(0.5)),
		P95MS:  toMS(snap.Quantile(0.95)),
		P99MS:  toMS(snap.Quantile(0.99)),
		MaxMS:  toMS(snap.Max),
	}
}

// endpointStats snapshots every endpoint that has seen traffic for the stats
// payload.
func (s *Server) endpointStats() map[string]api.EndpointStats {
	out := make(map[string]api.EndpointStats)
	for e := obs.Endpoint(0); e < obs.NumEndpoints; e++ {
		m := s.obs.Endpoint(e)
		if m.Requests.Load() == 0 {
			continue
		}
		es := api.EndpointStats{
			Requests: m.Requests.Load(),
			InFlight: m.InFlight.Load(),
			Latency:  latencySummary(m.Latency.Snapshot()),
		}
		if errs := m.Errors(); len(errs) > 0 {
			es.Errors = errs
		}
		if hits, misses := m.CacheHits.Load(), m.CacheMisses.Load(); hits+misses > 0 {
			es.Cache = &api.CacheStats{Hits: hits, Misses: misses}
		}
		out[e.String()] = es
	}
	return out
}

// stageStats snapshots the recommend pipeline's aggregated per-stage timings.
func (s *Server) stageStats() []api.StageStats {
	totals := s.obs.StageTotals()
	out := make([]api.StageStats, len(totals))
	for i, st := range totals {
		totalMS := float64(st.Total) / float64(time.Millisecond)
		mean := 0.0
		if st.Count > 0 {
			mean = totalMS / float64(st.Count)
		}
		out[i] = api.StageStats{Name: st.Name, Count: st.Count, TotalMS: totalMS, MeanMS: mean}
	}
	return out
}
