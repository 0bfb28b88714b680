// Package obs is the serving layer's observability toolkit: lock-free
// per-endpoint counters, fixed-bucket latency histograms, per-request stage
// traces, and a Prometheus text-format renderer — all stdlib-only.
//
// # Counters and histograms
//
// Registry holds one EndpointMetrics per served route (the Endpoint enum is
// closed, so the counters live in fixed arrays): total requests, errors by
// reptile/api error code, an in-flight gauge, recommendation-cache hit/miss
// counters, and a latency Histogram. Recording is a handful of atomic adds;
// no locks are taken on the request path.
//
// Histogram uses a fixed power-of-two-microsecond bucket layout shared by
// every instance. Quantiles (p50/p95/p99) interpolate linearly inside the
// selected bucket, bounding the estimation error by the bucket width, and are
// clamped to the recorded maximum.
//
// # Stage traces
//
// Trace records one request's pipeline spans — cache lookup, session bind,
// group-by/cube, shard scatter-gather, model fit, encode — from any number
// of goroutines. Stages() flattens overlapping and nested spans into an
// exclusive decomposition (each time slice attributed to the innermost
// active span), so per-stage durations sum to the union of instrumented
// time, never more than the request's wall clock. The serving layer carries
// the trace in the request context (ContextWithTrace/TraceFrom); the engine
// records into it through its own tiny core.SpanRecorder seam, so
// internal/core never imports this package.
//
// # Exposition
//
// Registry.WriteProm renders everything in the Prometheus text exposition
// format (served as GET /v1/metrics by internal/server), and the same
// counters feed the JSON per-endpoint and per-stage blocks of GET /v1/stats.
package obs
