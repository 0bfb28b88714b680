// Package api defines the v1 wire protocol of the Reptile HTTP service: the
// request and response structs of every endpoint, the structured error
// envelope, and the machine-readable error codes. The server
// (internal/server, fronted by cmd/reptiled) encodes and decodes exclusively
// through this package, and so does the native Go client (reptile/client),
// so the two can never drift apart.
//
// The package depends only on the standard library: clients in other
// processes can vendor it without pulling in the engine.
//
// Endpoints (all JSON):
//
//	POST   /v1/datasets                  RegisterDatasetRequest → DatasetInfo
//	GET    /v1/datasets                  → ListDatasetsResponse
//	POST   /v1/datasets/{name}/append    AppendRequest → AppendResponse
//	POST   /v1/sessions                  CreateSessionRequest → Session
//	DELETE /v1/sessions/{id}             → 204 No Content
//	POST   /v1/sessions/{id}/recommend   RecommendRequest → RecommendResponse
//	POST   /v1/sessions/{id}/drill       DrillRequest → DrillResponse
//	GET    /v1/stats                     → StatsResponse
//	GET    /v1/metrics                   → Prometheus text exposition (not JSON)
//	GET    /healthz                      → HealthResponse
//
// Every non-2xx response carries an Error envelope.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Version is the protocol version this package describes; it is the path
// prefix of every versioned endpoint ("/v1/...").
const Version = "v1"

// ErrorCode is a machine-readable error class. Codes are stable across
// releases: clients branch on them, not on message text.
type ErrorCode string

// The v1 error codes.
const (
	// CodeBadRequest rejects a malformed request (bad JSON, missing fields,
	// unparsable complaint or hierarchy spec). HTTP 400.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeDatasetNotFound reports an unregistered dataset name. HTTP 404.
	CodeDatasetNotFound ErrorCode = "dataset_not_found"
	// CodeDatasetExists reports a registration name collision. HTTP 409.
	CodeDatasetExists ErrorCode = "dataset_exists"
	// CodeSessionNotFound reports an unknown session id. HTTP 404.
	CodeSessionNotFound ErrorCode = "session_not_found"
	// CodeSessionExpired reports a session reaped by its idle TTL; the
	// client must create a new one. HTTP 410.
	CodeSessionExpired ErrorCode = "session_expired"
	// CodeUnprocessable reports a well-formed request the engine cannot
	// evaluate (unknown measure, complaint tuple without provenance, an
	// append batch violating the hierarchy FDs). HTTP 422.
	CodeUnprocessable ErrorCode = "unprocessable"
	// CodeOverloaded reports that the dataset is at its concurrent
	// recommendation limit; retry after Error.RetryAfter seconds. HTTP 429.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInternal reports a server-side failure. HTTP 500.
	CodeInternal ErrorCode = "internal"
)

// ErrorCodes is the closed set of v1 error codes, in declaration order: the
// one list everything that enumerates the codes ranges over (the server's
// per-code error counters are sized and rendered from it). CodeInternal is
// last — the class an unknown code is treated as.
var ErrorCodes = [...]ErrorCode{
	CodeBadRequest, CodeDatasetNotFound, CodeDatasetExists,
	CodeSessionNotFound, CodeSessionExpired, CodeUnprocessable,
	CodeOverloaded, CodeInternal,
}

// HTTPStatus returns the HTTP status code an error code travels under.
// Unknown codes map to 500.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeDatasetNotFound, CodeSessionNotFound:
		return http.StatusNotFound
	case CodeDatasetExists:
		return http.StatusConflict
	case CodeSessionExpired:
		return http.StatusGone
	case CodeUnprocessable:
		return http.StatusUnprocessableEntity
	case CodeOverloaded:
		return http.StatusTooManyRequests
	}
	return http.StatusInternalServerError
}

// CodeForStatus maps an HTTP status to the error code it conventionally
// carries — the fallback clients use when a response body holds no envelope
// (e.g. an intermediary proxy answered). Session-scoped requests map 404 to
// CodeSessionNotFound via the envelope itself; bare-status mapping picks the
// dataset variant for 404.
func CodeForStatus(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeDatasetNotFound
	case http.StatusConflict:
		return CodeDatasetExists
	case http.StatusGone:
		return CodeSessionExpired
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeOverloaded
	}
	return CodeInternal
}

// Error is the v1 error envelope: every non-2xx response body decodes into
// it. It implements the error interface, so reptile/client returns *Error
// values directly.
type Error struct {
	// Message is the human-readable description (JSON field "error").
	Message string `json:"error"`
	// Code is the machine-readable error class.
	Code ErrorCode `json:"code"`
	// RetryAfter, in seconds, is set on CodeOverloaded responses (it mirrors
	// the Retry-After header).
	RetryAfter int `json:"retry_after,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return fmt.Sprintf("%s (%s)", e.Message, e.Code)
}

// IsCode reports whether err is (or wraps) an *Error with the given code.
func IsCode(err error, code ErrorCode) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}

// RegisterDatasetRequest registers a dataset (POST /v1/datasets). Exactly one
// of Path (a CSV or .rst file the server can read) and CSV (inline content)
// must be set. When Path names a .rst snapshot, measures and hierarchies come
// from the file and the request fields must be empty.
type RegisterDatasetRequest struct {
	Name     string   `json:"name"`
	Path     string   `json:"path,omitempty"`
	CSV      string   `json:"csv,omitempty"`
	Measures []string `json:"measures,omitempty"`
	// Hierarchies uses the CLI's compact notation, e.g.
	// "geo:region,district,village;time:year".
	Hierarchies string `json:"hierarchies,omitempty"`
	// Engine options; zero values select the core defaults.
	EMIterations int `json:"em_iterations,omitempty"`
	TopK         int `json:"topk,omitempty"`
	Workers      int `json:"workers,omitempty"`
	// Shards ≥ 2 partitions the dataset and serves it through the sharded
	// scatter-gather engine; 0 defers to the server's configured default, 1
	// forces single-shard serving. A partitioned .rst file carries its own
	// shard topology and rejects both fields.
	Shards int `json:"shards,omitempty"`
	// ShardKey names the dimension rows are partitioned on; it must be the
	// root attribute of one of the dataset's hierarchies. Empty defaults to
	// the first hierarchy's root.
	ShardKey string `json:"shard_key,omitempty"`
	// Retention, a Go duration string ("72h", "17520h"), bounds the dataset's
	// history: rows whose event time on RetentionDim falls more than this
	// window behind the newest event are dropped at the next flush. Empty
	// defers to the server's configured default window.
	Retention string `json:"retention,omitempty"`
	// RetentionDim names the time dimension retention is measured on. Values
	// parse as RFC 3339 timestamps down to bare years; rows with unparsable
	// values are kept. Required when Retention is set (unless the server
	// configures a default dimension).
	RetentionDim string `json:"retention_dim,omitempty"`
}

// DatasetInfo describes one registered dataset's currently-served snapshot
// version.
type DatasetInfo struct {
	Name        string   `json:"name"`
	Rows        int      `json:"rows"`
	Version     uint64   `json:"version"`
	Hierarchies []string `json:"hierarchies"`
	Measures    []string `json:"measures"`
	// Shards is the number of partitions the dataset is served from; 0 means
	// single-shard (unpartitioned) serving.
	Shards int `json:"shards,omitempty"`
}

// ListDatasetsResponse is the GET /v1/datasets payload: every registered
// dataset, sorted by name.
type ListDatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// AppendRequest ingests rows into a registered dataset
// (POST /v1/datasets/{name}/append): CSV content whose header names every
// dimension and measure column of the dataset (in any order).
type AppendRequest struct {
	CSV string `json:"csv"`
}

// AppendResponse reports the serving state after an append. On a dataset with
// write-ahead logging, rows are durable (WALSeq) the moment the response
// arrives but fold into the served version asynchronously: DatasetInfo then
// describes the version still serving, and PendingRows counts rows logged but
// not yet flushed. Without a WAL the swap is synchronous and both fields are
// zero.
type AppendResponse struct {
	DatasetInfo
	Appended int `json:"appended"`
	// WALSeq is the write-ahead-log sequence number that made this batch
	// durable; 0 when the dataset has no WAL.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// PendingRows counts rows (this batch included) committed to the WAL but
	// not yet folded into the served snapshot.
	PendingRows int `json:"pending_rows,omitempty"`
}

// CreateSessionRequest starts a drill-down session (POST /v1/sessions).
type CreateSessionRequest struct {
	Dataset string   `json:"dataset"`
	GroupBy []string `json:"group_by"`
	// TTLSeconds overrides the server's idle-session TTL for this session.
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// Session describes a live drill-down session. State is the session's drill
// state key; it changes on every drill and keys recommendation caches.
type Session struct {
	ID        string   `json:"id"`
	Dataset   string   `json:"dataset"`
	GroupBy   []string `json:"group_by"`
	State     string   `json:"state"`
	ExpiresAt string   `json:"expires_at"`
}

// RecommendRequest evaluates a complaint
// (POST /v1/sessions/{id}/recommend).
type RecommendRequest struct {
	// Complaint uses the CLI's notation, quoted values included, e.g.
	// `agg=mean measure=severity dir=low district="New York" year=1986`.
	Complaint string `json:"complaint"`
}

// RecommendResponse carries one evaluated complaint.
type RecommendResponse struct {
	State string `json:"state"`
	// Cache is "hit", "miss", or "bypass" (caching disabled or complaint not
	// cacheable).
	Cache string `json:"cache"`
	// Recommendation carries the engine's deterministic Recommendation
	// encoding verbatim: the bytes equal json.Marshal of an in-process
	// Session.Recommend result. Use Decode for a typed view.
	Recommendation json.RawMessage `json:"recommendation"`
	// Stages is the request's per-stage timing breakdown, present only when
	// the request asked for it with an X-Reptile-Trace header. The stages
	// form an exclusive decomposition: their durations sum to at most the
	// request's wall time. The same breakdown travels compactly in the
	// X-Reptile-Trace response header.
	Stages []StageTiming `json:"stages,omitempty"`
}

// StageTiming is one pipeline stage of a traced recommend request.
type StageTiming struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
}

// Decode parses the raw recommendation bytes into their typed form.
func (r *RecommendResponse) Decode() (*Recommendation, error) {
	var rec Recommendation
	if err := json.Unmarshal(r.Recommendation, &rec); err != nil {
		return nil, fmt.Errorf("api: decoding recommendation: %w", err)
	}
	return &rec, nil
}

// Recommendation mirrors the engine's deterministic JSON encoding of one
// Reptile invocation: every candidate drill-down hierarchy's evaluation, and
// the name of the winning one.
type Recommendation struct {
	// Best names the winning hierarchy (an entry of Hierarchies).
	Best        string            `json:"best"`
	Hierarchies []HierarchyResult `json:"hierarchies"`
}

// BestResult returns the winning hierarchy's evaluation, or nil.
func (r *Recommendation) BestResult() *HierarchyResult {
	for i := range r.Hierarchies {
		if r.Hierarchies[i].Hierarchy == r.Best {
			return &r.Hierarchies[i]
		}
	}
	return nil
}

// HierarchyResult is the evaluation of one candidate drill-down hierarchy:
// the attribute the drill-down adds, the complained aggregate's current
// value, and the drill-down groups ranked by repaired complaint score.
type HierarchyResult struct {
	Hierarchy string       `json:"hierarchy"`
	Attr      string       `json:"attr"`
	Current   float64      `json:"current"`
	BestScore float64      `json:"best_score"`
	Ranked    []GroupScore `json:"ranked"`
}

// GroupScore is one ranked drill-down group.
type GroupScore struct {
	// Group is the group's key values in group-by attribute order.
	Group []string `json:"group"`
	// Predicted maps base statistics ("count", "mean", "std") to the
	// multi-level model's expected values.
	Predicted map[string]float64 `json:"predicted"`
	// Repaired is the complained tuple's aggregate after repairing this
	// group; Score is fcomp(Repaired); Gain is fcomp(current) − Score.
	Repaired float64 `json:"repaired"`
	Score    float64 `json:"score"`
	Gain     float64 `json:"gain"`
}

// DrillRequest accepts a recommendation (POST /v1/sessions/{id}/drill),
// extending the named hierarchy's group-by prefix by one attribute.
type DrillRequest struct {
	Hierarchy string `json:"hierarchy"`
}

// DrillResponse reports the session's group-by and state after a drill.
type DrillResponse struct {
	GroupBy []string `json:"group_by"`
	State   string   `json:"state"`
}

// CubeStatus describes a dataset version's materialized rollup cube.
type CubeStatus struct {
	Present bool `json:"present"`
	// Levels is the number of materialized lattice groupings, Cells the
	// total precomputed group count across them (0 when absent).
	Levels int `json:"levels,omitempty"`
	Cells  int `json:"cells,omitempty"`
}

// DatasetStats is one registered dataset's serving state: the snapshot
// version currently answering queries, its row count, the sessions bound to
// it, and whether a materialized cube backs its group-bys.
type DatasetStats struct {
	Version  uint64     `json:"version"`
	Rows     int        `json:"rows"`
	Sessions int        `json:"sessions"`
	Cube     CubeStatus `json:"cube"`
	// Shards is the partition count (0 when unsharded) and ShardRows the
	// per-shard row counts, in shard order.
	Shards    int   `json:"shards,omitempty"`
	ShardRows []int `json:"shard_rows,omitempty"`
	// OpenMode reports how the serving snapshot holds its columns: "eager"
	// (heap slices) or "mapped" (views over a memory-mapped .rst file).
	// ResidentColumnBytes is the heap footprint of column payloads — 0 for a mapped dataset, whose payloads stay in the
	// page cache.
	OpenMode            string `json:"open_mode"`
	ResidentColumnBytes int64  `json:"resident_column_bytes"`
	// WAL reports the dataset's write-ahead log and micro-batch flusher state;
	// nil when the dataset is not WAL-backed.
	WAL *WALStatus `json:"wal,omitempty"`
	// Retention reports the dataset's time-window enforcement; nil when no
	// retention window is configured.
	Retention *RetentionStatus `json:"retention,omitempty"`
	// Cache reports the recommendation cache's hit/miss counters for this
	// dataset alone (Size is meaningful only on the global CacheStats).
	Cache *CacheStats `json:"cache,omitempty"`
}

// WALStatus is one WAL-backed dataset's durability and flusher state.
type WALStatus struct {
	// LastSeq is the newest sequence number committed to the log.
	LastSeq uint64 `json:"last_seq"`
	// FlushedSeq is the newest sequence folded into the served snapshot;
	// rows between FlushedSeq and LastSeq are durable but pending.
	FlushedSeq uint64 `json:"flushed_seq"`
	// PendingRows and PendingBytes size the micro-batch waiting to flush.
	PendingRows  int   `json:"pending_rows"`
	PendingBytes int   `json:"pending_bytes"`
	SizeBytes    int64 `json:"size_bytes"`
	// Flushes counts coalesced folds into the serving state since startup.
	Flushes uint64 `json:"flushes"`
	// DroppedRows counts logged rows the flusher could not fold (e.g. an FD
	// violation discovered at build time); they remain in the log but are
	// skipped on replay too.
	DroppedRows uint64 `json:"dropped_rows,omitempty"`
	// LastFlush is the RFC 3339 time of the newest successful flush; empty
	// before the first one.
	LastFlush string `json:"last_flush,omitempty"`
	// LastError is the most recent flush or checkpoint failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// RetentionStatus is one dataset's time-window retention state.
type RetentionStatus struct {
	// Window is the configured retention window as a Go duration string, and
	// Dim the time dimension it is measured on.
	Window string `json:"window"`
	Dim    string `json:"dim"`
	// Horizon is the newest enforced cut-off (RFC 3339): rows older than it
	// were dropped. Empty until a pass drops rows.
	Horizon string `json:"horizon,omitempty"`
	// DroppedRows counts rows dropped by retention since startup.
	DroppedRows uint64 `json:"dropped_rows,omitempty"`
}

// CacheStats reports the recommendation LRU's counters.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

// ServerInfo identifies the serving process in GET /v1/stats.
type ServerInfo struct {
	// Version is the build version the daemon was started with (also printed
	// by reptiled -version); empty when unset.
	Version string `json:"version,omitempty"`
	// GoVersion is the runtime's Go version string.
	GoVersion string `json:"go_version"`
	// StartTime is the process start in RFC 3339; UptimeSeconds the elapsed
	// time since then.
	StartTime     string  `json:"start_time"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// LatencySummary summarizes one endpoint's latency distribution, derived from
// its fixed-bucket histogram (quantiles are bucket-interpolated estimates,
// clamped to the recorded maximum). All durations are milliseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// EndpointStats is one endpoint's serving counters in GET /v1/stats.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	InFlight int64  `json:"in_flight"`
	// Errors maps api error codes to counts; zero-count codes are omitted.
	Errors  map[string]uint64 `json:"errors,omitempty"`
	Latency LatencySummary    `json:"latency"`
	// Cache carries the endpoint's recommendation-cache hit/miss counters,
	// present only on cache-backed endpoints (recommend).
	Cache *CacheStats `json:"cache,omitempty"`
}

// StageStats is one recommend-pipeline stage's aggregate across every traced
// request since startup.
type StageStats struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Status   string                  `json:"status"`
	Server   ServerInfo              `json:"server"`
	Datasets map[string]DatasetStats `json:"datasets"`
	Sessions int                     `json:"sessions"`
	Cache    CacheStats              `json:"cache"`
	// Endpoints maps endpoint labels ("recommend", "append", ...) to their
	// serving counters; Stages aggregates the recommend pipeline's per-stage
	// timings in first-seen order.
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
	Stages    []StageStats             `json:"stages,omitempty"`
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	Status   string     `json:"status"`
	Datasets int        `json:"datasets"`
	Sessions int        `json:"sessions"`
	Cache    CacheStats `json:"cache"`
}
