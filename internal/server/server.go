// Package server exposes Reptile's explanation engine as a long-lived HTTP
// JSON service. A resident server amortizes state that one-shot CLI runs pay
// for on every query: datasets load once into a registry of shared
// core.Engines, drill-down sessions persist across requests with TTL-based
// expiry, repeated complaints are answered from an LRU cache keyed by
// (session drill state, complaint), and a per-engine limiter bounds
// concurrent Recommend calls so floods degrade to 429s instead of
// oversubscribing the worker pool.
//
// Datasets live in the registry as immutable versions (internal/ingest: a
// shard.Set of N ≥ 1 shards plus the engine built over it) shared by every
// session. POST /v1/datasets/{name}/append ingests rows: the successor set
// and engine build while traffic continues on the current version, then swap
// in atomically; the dataset's cached recommendations are invalidated,
// sessions rebind to the new version on their next request, and evaluations
// already in flight finish on the old one.
//
// Every request and response body is a type of the public wire-protocol
// package reptile/api, and every non-2xx response carries its structured
// error envelope, so the native Go client (reptile/client) and any
// third-party client share one protocol definition with the server.
//
// Endpoints:
//
//	POST   /v1/datasets                  register a CSV or .rst dataset
//	GET    /v1/datasets                  list registered datasets
//	POST   /v1/datasets/{name}/append    append rows, hot-swapping the engine
//	POST   /v1/sessions                  start a drill-down session
//	DELETE /v1/sessions/{id}             release a session explicitly
//	POST   /v1/sessions/{id}/recommend   evaluate a complaint
//	POST   /v1/sessions/{id}/drill       accept a recommendation
//	GET    /v1/stats                     per-dataset versions, cube status,
//	                                     session, cache, endpoint and stage
//	                                     counters
//	GET    /v1/metrics                   Prometheus text exposition
//	GET    /healthz                      liveness + registry/cache statistics
//
// Every route runs behind the observability middleware (internal/obs):
// per-endpoint request/error/in-flight counters and latency histograms, plus
// a per-request stage trace on the recommend pipeline.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/reptile/api"
)

// Config tunes the server. The zero value selects sensible defaults.
type Config struct {
	// SessionTTL is how long an idle session survives; every request against
	// a session renews it. Default 15 minutes.
	SessionTTL time.Duration
	// CacheSize bounds the recommendation LRU in entries. 0 selects the
	// default (256); negative disables caching.
	CacheSize int
	// MaxInflight caps concurrent Recommend evaluations per engine; excess
	// requests wait QueueWait and then answer 429. Each admitted request
	// fans out onto its own pool of the engine's Workers goroutines, so
	// MaxInflight × Workers bounds a dataset's evaluation goroutines. 0
	// defaults to the engine's worker-pool size.
	MaxInflight int
	// QueueWait is how long an over-limit Recommend waits for a slot before
	// answering 429. Default 100ms; negative means fail immediately.
	QueueWait time.Duration
	// DisableCube skips materializing rollup cubes for registered datasets.
	// By default every snapshot version gets one immutable cube, shared by
	// all sessions, that answers hierarchy-prefix group-bys from precomputed
	// cells; snapshots the cube subsystem declines (or .rst files without a
	// stored cube when disabled) serve from row scans instead.
	DisableCube bool
	// Shards ≥ 2 partitions every registered dataset into that many shards
	// and serves it through the sharded scatter-gather engine. Individual
	// registrations can override it per request. 0 or 1 serves unsharded.
	Shards int
	// ShardKey names the default partition dimension; it must be the root
	// attribute of one of the dataset's hierarchies. Empty selects the first
	// hierarchy's root.
	ShardKey string
	// MappedIO serves registered .rst files (partitioned or not) out of
	// memory-mapped column payloads instead of decoding them onto the heap:
	// per-dataset residency stays O(dictionaries + cube) rather than O(rows),
	// so snapshots larger than RAM serve with flat RSS. CSV registrations are
	// unaffected (they are encoded in memory and have no file to map). Mapped
	// datasets reject appends — re-register eagerly to ingest.
	MappedIO bool
	// WAL enables per-dataset write-ahead logging with micro-batched ingestion:
	// every append commits its rows to <WALDir>/<dataset>.wal (fsynced before
	// the request is acknowledged) and returns immediately; a background
	// flusher coalesces pending rows into one snapshot rebuild per micro-batch.
	// On restart, re-registering a dataset under the same name replays the log
	// (on top of the newest checkpoint, when one exists), so every acknowledged
	// row survives a crash. Mapped datasets, which reject appends, are served
	// without a log.
	WAL bool
	// WALDir is the directory holding logs and checkpoint snapshots.
	// Default ".".
	WALDir string
	// FlushRows, FlushBytes and FlushInterval bound a micro-batch: the flusher
	// folds pending rows into the serving state as soon as either size
	// threshold is crossed, and no later than FlushInterval after they were
	// logged. Defaults: 256 rows, 1 MiB, 200ms.
	FlushRows     int
	FlushBytes    int
	FlushInterval time.Duration
	// CheckpointBytes triggers a checkpoint once a dataset's log outgrows this
	// many bytes: the serving state is serialized to <dataset>.ckpt.<seq>.rst
	// (the filename carries the last folded sequence number, so one rename
	// commits data and position together) and the log is truncated. Default
	// 8 MiB; negative disables checkpointing, the log then grows unbounded.
	CheckpointBytes int64
	// Retention bounds every registered dataset's history: rows whose event
	// time on RetentionDim falls more than the window behind the dataset's
	// newest event are dropped at the next flush, producing a new snapshot
	// version. Individual registrations can override both fields. 0 keeps
	// all rows. The horizon is event-time based, never wall-clock, so a
	// paused feed loses nothing.
	Retention    time.Duration
	RetentionDim string
	// Version is the build identifier reported by /v1/stats (and printed by
	// reptiled -version); empty when unset.
	Version string
	// RequestLog, when non-nil, receives one structured entry per request:
	// request id, endpoint, method, path, status, and latency.
	RequestLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.WALDir == "" {
		c.WALDir = "."
	}
	if c.FlushRows <= 0 {
		c.FlushRows = 256
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 1 << 20
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 8 << 20
	}
	return c
}

// ErrDuplicateDataset reports a name collision in the dataset registry.
var ErrDuplicateDataset = errors.New("dataset already registered")

// maxSessionTTL caps client-requested session lifetimes.
const maxSessionTTL = 24 * time.Hour

// engineEntry is one registered dataset: its versioned serving state plus
// the recommendation limiter.
type engineEntry struct {
	name string
	// ds owns the dataset's lifecycle — current version, appends, retention,
	// log and checkpoints. Load ds.Version() once per request; a concurrent
	// append swaps in a successor without disturbing loads.
	ds *ingest.Dataset
	// slots is the per-engine Recommend limiter: acquire before evaluating,
	// release after. Capacity is Config.MaxInflight (default: the engine's
	// worker count).
	slots chan struct{}
	// ing is the dataset's micro-batch flusher over ds's write-ahead log; nil
	// when the dataset takes synchronous appends.
	ing *ingester
	// cacheHits and cacheMiss count recommendation-cache outcomes for this
	// dataset alone (the server-wide counters live on Server).
	cacheHits atomic.Uint64
	cacheMiss atomic.Uint64
}

// acquire claims a recommendation slot, waiting up to wait. It returns false
// when the engine stays saturated (the caller answers 429) or the request is
// canceled.
func (e *engineEntry) acquire(ctx context.Context, wait time.Duration) bool {
	select {
	case e.slots <- struct{}{}:
		return true
	default:
	}
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case e.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (e *engineEntry) release() { <-e.slots }

// session is one client's drill-down state bound to a registered engine.
// A session pins the engine version it last evaluated against: when an
// append hot-swaps the dataset, the next lookup rebinds the session to the
// new version (preserving its drill state) while any in-flight Recommend
// finishes on the old one.
type session struct {
	id     string
	engine *engineEntry
	sess   *core.Session
	// version is the snapshot version sess was built against; guarded by
	// Server.mu like deadline.
	version uint64
	ttl     time.Duration
	// deadline is guarded by Server.mu; every successful lookup renews it.
	deadline time.Time
}

// Server is the HTTP serving layer. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config
	now func() time.Time // swapped by expiry tests

	mu       sync.Mutex
	engines  map[string]*engineEntry
	sessions map[string]*session

	cache     *lruCache // nil when caching is disabled
	cacheHits atomic.Uint64
	cacheMiss atomic.Uint64

	// obs holds the per-endpoint counters, latency histograms and stage
	// aggregates behind GET /v1/metrics and the stats endpoint blocks.
	obs *obs.Registry
}

// New builds a server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		now:      time.Now,
		engines:  make(map[string]*engineEntry),
		sessions: make(map[string]*session),
		obs:      obs.NewRegistry(),
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize)
	}
	return s
}

// regDefaults seeds one registration's tuning — shard topology, cube,
// retention window, engine options — from the server configuration; the
// register request overrides individual fields.
func (s *Server) regDefaults(opts core.Options) ingest.Options {
	return ingest.Options{
		Shards:       s.cfg.Shards,
		ShardKey:     s.cfg.ShardKey,
		Cube:         !s.cfg.DisableCube,
		Retention:    s.cfg.Retention,
		RetentionDim: s.cfg.RetentionDim,
		Engine:       opts,
	}
}

// RegisterDataset adds a named dataset to the registry, wrapped as a
// one-shard store.Snapshot set so it can later take appends. It is the
// programmatic twin of POST /v1/datasets (preloading, tests). When
// Config.Shards asks for sharded serving, the set is partitioned first, and
// unless Config.DisableCube is set every shard's rollup cube is materialized.
// With Config.WAL set, the dataset's durable state recovers first — the
// newest checkpoint supersedes ds, the log's surviving batches fold in — so a
// re-registration after a crash serves every acknowledged row.
func (s *Server) RegisterDataset(name string, ds *data.Dataset, opts core.Options) error {
	_, err := s.register(name, shard.Single(store.FromDataset(ds)), s.regDefaults(opts))
	return err
}

// register opens (or, with Config.WAL, recovers) the dataset under opts,
// wires it into the registry and returns the version it starts serving. Duplicate names fail before paying
// for recovery, partitioning, cube or engine construction, and are rechecked
// under the insertion lock, so a racing twin still gets the conflict, just
// after doing the work. Mapped sets, which reject appends, are served without
// a log.
func (s *Server) register(name string, set *shard.Set, opts ingest.Options) (*ingest.Version, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset needs a name")
	}
	if s.registered(name) {
		return nil, fmt.Errorf("server: %w: %q", ErrDuplicateDataset, name)
	}
	var ds *ingest.Dataset
	var err error
	logged := s.cfg.WAL && !set.Mapped()
	if logged {
		if ingest.FileName(name) != name {
			return nil, fmt.Errorf("server: dataset name %q: write-ahead logging needs a file-safe name (letters, digits, '.', '_', '-')", name)
		}
		ds, err = ingest.Recover(s.cfg.WALDir, name, set, opts)
	} else {
		ds, err = ingest.Open(set, opts)
	}
	if err != nil {
		return nil, err
	}
	v := ds.Version()
	max := s.cfg.MaxInflight
	if max <= 0 {
		// Default to the engine's resolved pool size, so admission matches
		// the workers a Recommend actually fans out onto.
		max = v.Eng.Workers()
	}
	ent := &engineEntry{name: name, ds: ds, slots: make(chan struct{}, max)}
	if logged {
		ent.ing = newIngester(s, ent)
	}
	s.mu.Lock()
	if _, dup := s.engines[name]; dup {
		s.mu.Unlock()
		ds.Close()
		return nil, fmt.Errorf("server: %w: %q", ErrDuplicateDataset, name)
	}
	s.engines[name] = ent
	s.mu.Unlock()
	if logged {
		go ent.ing.run()
	}
	return v, nil
}

// registered reports whether a dataset of that name is in the registry.
func (s *Server) registered(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.engines[name]
	return ok
}

// Append ingests rows into a registered dataset: it builds the successor
// set and engine off to the side (no registry or entry lock held while
// serving traffic continues on the current version), atomically swaps the
// new version in, and invalidates the dataset's cached recommendations. Each
// row routes to the shard its key value owns, untouched shards are shared
// wholesale, and cubes are delta-merged rather than rebuilt; rows behind the
// retention horizon drop in the same swap. Sessions rebind to the new
// version on their next request; a Recommend already in flight finishes on
// the version it loaded. Concurrent Appends to the same dataset serialize.
// When the dataset is WAL-backed, Append instead commits the rows to the log
// and returns the version still serving — the flusher folds them in moments
// later (use the HTTP layer's wal_seq/pending_rows to observe the lag).
func (s *Server) Append(name string, rows []store.Row) (*ingest.Version, error) {
	s.mu.Lock()
	ent, ok := s.engines[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown dataset %q", name)
	}
	if ent.ing != nil {
		if _, _, err := ent.ing.enqueue(rows); err != nil {
			return nil, err
		}
		return ent.ds.Version(), nil
	}
	return s.appendSync(ent, rows)
}

// appendSync folds rows into ent's serving state synchronously and
// invalidates the dataset's cached recommendations.
func (s *Server) appendSync(ent *engineEntry, rows []store.Row) (*ingest.Version, error) {
	v, err := ent.ds.Append(rows)
	if err != nil {
		return nil, err
	}
	s.invalidateDataset(ent)
	return v, nil
}

// invalidateDataset drops every cached recommendation belonging to the
// dataset's sessions after a hot swap. In-flight evaluations of the old
// version guard their own inserts with a state re-check, and a rebound
// session's state key rests on the new engine, so nothing stale can be
// re-inserted under a live key.
func (s *Server) invalidateDataset(ent *engineEntry) {
	s.mu.Lock()
	if s.cache != nil {
		for _, sess := range s.sessions {
			if sess.engine == ent {
				s.cache.RemovePrefix(sess.id + "\x00")
			}
		}
	}
	s.mu.Unlock()
}

// Handler returns the server's HTTP routes, each wrapped in the
// observability middleware (see instrument). Neither stats nor metrics ever
// takes a recommendation slot, so both stay readable while every dataset is
// answering 429s.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument(obs.EndpointHealthz, s.handleHealthz))
	mux.HandleFunc("GET /v1/stats", s.instrument(obs.EndpointStats, s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.instrument(obs.EndpointMetricsScrape, s.handleMetrics))
	mux.HandleFunc("POST /v1/datasets", s.instrument(obs.EndpointRegister, s.handleRegisterDataset))
	mux.HandleFunc("GET /v1/datasets", s.instrument(obs.EndpointListDatasets, s.handleListDatasets))
	mux.HandleFunc("POST /v1/datasets/{name}/append", s.instrument(obs.EndpointAppend, s.handleAppend))
	mux.HandleFunc("POST /v1/sessions", s.instrument(obs.EndpointCreateSession, s.handleCreateSession))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument(obs.EndpointReleaseSession, s.handleReleaseSession))
	mux.HandleFunc("POST /v1/sessions/{id}/recommend", s.instrument(obs.EndpointRecommend, s.handleRecommend))
	mux.HandleFunc("POST /v1/sessions/{id}/drill", s.instrument(obs.EndpointDrill, s.handleDrill))
	return mux
}

// sessionView is one request's consistent snapshot of a session: the
// core.Session and engine version captured under the registry lock, so a
// concurrent hot-swap rebinding the session cannot tear the request's view.
type sessionView struct {
	id      string
	engine  *engineEntry
	cs      *core.Session
	version uint64
}

// lookupSession resolves a live session, renewing its TTL. Expired sessions
// are removed (with their cache entries) and reported as session_expired
// (410 Gone). If the dataset was hot-swapped since the session's last
// request, the session is rebound to the current engine version, preserving
// its drill state; any request already evaluating keeps the old version's
// view.
func (s *Server) lookupSession(id string) (sessionView, api.ErrorCode, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return sessionView{}, api.CodeSessionNotFound, fmt.Errorf("unknown session %q", id)
	}
	now := s.now()
	if now.After(sess.deadline) {
		s.dropSessionLocked(sess)
		return sessionView{}, api.CodeSessionExpired, fmt.Errorf("session %q expired", id)
	}
	sess.deadline = now.Add(sess.ttl)
	if v := sess.engine.ds.Version(); v.Set.Version() != sess.version {
		cs, err := v.Eng.NewSession(sess.sess.GroupBy())
		if err != nil {
			// Appends never change the schema, so the old drill state always
			// transfers; failure here means a bug, not bad client input.
			return sessionView{}, api.CodeInternal,
				fmt.Errorf("rebinding session %q to dataset version %d: %w", id, v.Set.Version(), err)
		}
		sess.sess = cs
		sess.version = v.Set.Version()
	}
	return sessionView{id: sess.id, engine: sess.engine, cs: sess.sess, version: sess.version}, "", nil
}

// dropSessionLocked removes a session and invalidates its cached
// recommendations. Callers hold s.mu.
func (s *Server) dropSessionLocked(sess *session) {
	delete(s.sessions, sess.id)
	if s.cache != nil {
		s.cache.RemovePrefix(sess.id + "\x00")
	}
}

// sweepExpiredLocked reaps every expired session. Callers hold s.mu. Expiry
// is lazy: the sweep runs on session creation and health checks, and
// individual lookups reap their own session, so no janitor goroutine is
// needed to bound the table.
func (s *Server) sweepExpiredLocked(now time.Time) {
	for _, sess := range s.sessions {
		if now.After(sess.deadline) {
			s.dropSessionLocked(sess)
		}
	}
}

// newSessionID returns a fresh unguessable session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading random session id: %v", err))
	}
	return "s_" + hex.EncodeToString(b[:])
}
