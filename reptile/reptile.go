// Package reptile is the public SDK of this Reptile reproduction (Huang &
// Wu, "Reptile: Aggregation-level Explanations for Hierarchical Data",
// SIGMOD 2022): a stable facade over the engine, data, and storage layers
// that makes the explanation engine embeddable without importing anything
// under internal/.
//
// The core loop is open → session → complain → recommend:
//
//	eng, err := reptile.Open("survey.csv",
//	        reptile.WithMeasures("severity"),
//	        reptile.WithHierarchies("geo:district,village;time:year"),
//	        reptile.WithWorkers(4))
//	if err != nil { ... }
//	sess, err := eng.NewSession([]string{"district", "year"})
//	if err != nil { ... }
//	rec, err := sess.Complain(`agg=std measure=severity dir=high district=Ofla year=1986`)
//	if err != nil { ... }
//	fmt.Println(rec.Best.Hierarchy, rec.Best.Attr) // the recommended drill-down
//
// Open loads either a CSV file (schema given by WithMeasures and
// WithHierarchies) or a dictionary-encoded .rst snapshot (schema carried by
// the file; see Engine.Save). In-memory datasets built with NewDataset run
// through New. Engines are safe for concurrent use; sessions hold one
// analyst's drill-down state.
//
// The same engine is served over HTTP by cmd/reptiled; reptile/api defines
// the shared v1 wire protocol and reptile/client is the native Go client.
// Demo datasets for the examples live in reptile/sampledata.
package reptile

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/store"
)

// config collects everything the functional options can set.
type config struct {
	name        string
	measures    []string
	hierarchies []Hierarchy
	buildCube   bool
	shards      int
	shardKey    string
	mappedIO    bool
	useWAL      bool
	walDir      string
	retention   time.Duration
	retDim      string
	core        core.Options
}

// Option configures Open and New.
type Option func(*config)

// WithWorkers bounds the evaluation worker pool of each Recommend call: at
// most n of its model fits run at once. 0 (the default) selects the number of
// CPUs; 1 forces the sequential path. Parallel evaluation is deterministic:
// it produces the same recommendation as a single worker.
func WithWorkers(n int) Option { return func(c *config) { c.core.Workers = n } }

// WithEMIterations sets the EM iterations per model fit (default 20, the
// paper's setting).
func WithEMIterations(n int) Option { return func(c *config) { c.core.EMIterations = n } }

// WithTopK bounds the groups reported per hierarchy (0 = all).
func WithTopK(k int) Option { return func(c *config) { c.core.TopK = k } }

// WithTrainer selects the model-training backend (default TrainerAuto).
func WithTrainer(t Trainer) Option { return func(c *config) { c.core.Trainer = t } }

// WithRandomEffects selects the random-effects design (default ZAuto).
func WithRandomEffects(re RandomEffects) Option { return func(c *config) { c.core.RandomEffects = re } }

// WithAux attaches auxiliary datasets for featurization: each aux table is
// joined on its JoinAttr and its measure becomes a model feature.
func WithAux(aux ...Aux) Option {
	return func(c *config) { c.core.Aux = append(c.core.Aux, aux...) }
}

// WithGroupFeatures attaches multi-attribute (per-group) features such as
// temporal lags (LagFeature) or multi-column aux joins (AuxGroupFeature).
// Their presence forces the naive trainer. An engine memoises its fits, so
// each Fn runs once per drilled group-by and statistic.
func WithGroupFeatures(gfs ...GroupFeature) Option {
	return func(c *config) { c.core.GroupFeatures = append(c.core.GroupFeatures, gfs...) }
}

// WithExcludeFromZ names features excluded from the random-effects design.
func WithExcludeFromZ(names ...string) Option {
	return func(c *config) { c.core.ExcludeFromZ = append(c.core.ExcludeFromZ, names...) }
}

// WithMeasures names the CSV columns parsed as numeric measures. Required
// when opening a CSV; must be left unset when opening a .rst snapshot, which
// carries its own schema.
func WithMeasures(names ...string) Option {
	return func(c *config) { c.measures = append(c.measures, names...) }
}

// WithHierarchies declares the dataset's hierarchies in the compact notation
// shared with the CLI and the server, e.g.
// "geo:region,district,village;time:year" (attributes least to most
// specific). Required when opening a CSV; must be left unset for .rst.
func WithHierarchies(spec string) Option {
	return func(c *config) {
		hs, err := data.ParseHierarchySpec(spec)
		if err != nil {
			// Options cannot return errors; buildConfig recovers this panic
			// and surfaces it as Open/New's error.
			panic(err)
		}
		c.hierarchies = append(c.hierarchies, hs...)
	}
}

// WithHierarchyList declares the hierarchies as structured values instead of
// the compact spec notation.
func WithHierarchyList(hs ...Hierarchy) Option {
	return func(c *config) { c.hierarchies = append(c.hierarchies, hs...) }
}

// WithName sets the dataset name recorded in the engine (and in snapshots
// written by Engine.Save). It defaults to the opened path. Only meaningful
// when opening a CSV; .rst snapshots and in-memory datasets already carry
// their name, and renaming them is rejected.
func WithName(name string) Option { return func(c *config) { c.name = name } }

// WithCube materializes the hierarchy-rollup cube when the dataset is
// opened: group-bys over hierarchy prefixes are then answered from
// precomputed cells instead of row scans. Snapshots that already carry a
// stored cube keep it without this option. On a sharded engine, every shard
// gets its own cube.
func WithCube() Option { return func(c *config) { c.buildCube = true } }

// WithShards partitions the dataset into n shards (n ≥ 2) and serves it
// through the sharded scatter-gather engine: every aggregation fans out to
// per-shard workers and the partial statistics merge before any model fit.
// Recommendations are byte-identical to the unsharded engine whenever every
// evaluated grouping includes the shard key's attribute (which holds for all
// drill-downs into the key's hierarchy) or the measures are integer-valued.
// 0 (the default) and 1 serve unsharded. Partitioned .rst files carry their
// own shard topology and reject this option.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithShardKey selects the dimension rows are partitioned on — it must be
// the root attribute of one of the dataset's hierarchies, and defaults to
// the first hierarchy's root. Requires WithShards.
func WithShardKey(dim string) Option { return func(c *config) { c.shardKey = dim } }

// WithMappedIO serves the opened .rst snapshot (partitioned or not) out of a
// memory-mapped file instead of one heap read of it, whose payloads an eager
// open views in place: residency stays O(dictionaries + cube) rather than
// O(file), so snapshots larger than RAM serve with flat RSS, at the price of
// page-cache reads on cold columns.
// Recommendations are byte-identical to an eager open. Only .rst paths accept
// the option — CSVs are parsed into memory and have no column payloads to
// map. Call Engine.Close to release the mapping.
func WithMappedIO() Option { return func(c *config) { c.mappedIO = true } }

// WithWAL attaches a write-ahead log to the engine: every Append commits its
// rows to <dir>/<dataset>.wal (fsynced) before the in-memory rebuild, and
// reopening the same dataset with the same directory replays the log, so
// appended rows survive a crash between Append and Save. Engine.Save
// checkpoints the full state into the .rst file and truncates the log; call
// Engine.Close to release the log handle. An empty dir selects the current
// directory. Incompatible with WithMappedIO (mapped engines reject appends).
func WithWAL(dir string) Option {
	return func(c *config) {
		c.useWAL = true
		c.walDir = dir
	}
}

// WithRetention bounds the engine's history to a time window: after every
// Append, rows whose event time on dim falls more than window behind the
// dataset's newest event are dropped into a successor version. Values on dim
// parse as RFC 3339 timestamps down to bare years ("2026-08-07", "2026");
// rows with unparsable values are kept. The horizon is event-time based, not
// wall-clock, so an idle engine never loses data.
func WithRetention(window time.Duration, dim string) Option {
	return func(c *config) {
		c.retention = window
		c.retDim = dim
	}
}

// Row is one appended row: dimension values in the dataset's dimension
// order and measure values in measure order.
type Row = store.Row

// Engine answers complaint-based drill-down queries over one dataset. It
// wraps the core explanation engine behind a stable API and is safe for
// concurrent use: many sessions may Recommend against it at once, and
// Append hot-swaps the served dataset without disturbing them.
type Engine struct {
	// ds owns the dataset's lifecycle (internal/ingest): the served version —
	// a set of N ≥ 1 shards plus the engine over it — appends, retention, the
	// optional write-ahead log, and checkpoints.
	ds *ingest.Dataset
}

// Open loads a dataset from path and builds an engine over it. A path ending
// in .rst loads a dictionary-encoded binary snapshot (written by Engine.Save
// or the reptile CLI's convert subcommand), which carries its own measures
// and hierarchies; any other path is parsed as CSV using the schema given by
// WithMeasures and WithHierarchies.
func Open(path string, opts ...Option) (*Engine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".rst") {
		if len(cfg.measures) > 0 || len(cfg.hierarchies) > 0 || cfg.name != "" {
			return nil, fmt.Errorf("reptile: a .rst snapshot carries its own name, measures and hierarchies; drop WithName/WithMeasures/WithHierarchies")
		}
		set, err := shard.Open(path, cfg.mappedIO)
		if err != nil {
			return nil, err
		}
		if set.N() > 1 && (cfg.shards != 0 || cfg.shardKey != "") {
			set.Close()
			return nil, fmt.Errorf("reptile: a partitioned .rst snapshot carries its own shard topology; drop WithShards/WithShardKey")
		}
		return open(set, cfg)
	}
	if cfg.mappedIO {
		return nil, fmt.Errorf("reptile: WithMappedIO needs a .rst snapshot path; %q is parsed as CSV into memory", path)
	}
	if len(cfg.measures) == 0 {
		return nil, fmt.Errorf("reptile: opening CSV %q needs WithMeasures", path)
	}
	if len(cfg.hierarchies) == 0 {
		return nil, fmt.Errorf("reptile: opening CSV %q needs WithHierarchies", path)
	}
	name := cfg.name
	if name == "" {
		name = path
	}
	ds, err := data.ReadCSVFile(path, name, cfg.measures, cfg.hierarchies)
	if err != nil {
		return nil, err
	}
	return open(shard.Single(store.FromDataset(ds)), cfg)
}

// New builds an engine over an in-memory dataset (see NewDataset, ReadCSV).
// The dataset must not be mutated afterwards. WithMeasures and
// WithHierarchies are not accepted here: the dataset already carries its
// schema.
func New(ds *Dataset, opts ...Option) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("reptile: nil dataset")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if len(cfg.measures) > 0 || len(cfg.hierarchies) > 0 || cfg.name != "" {
		return nil, fmt.Errorf("reptile: the dataset already carries its name and schema; drop WithName/WithMeasures/WithHierarchies")
	}
	if cfg.mappedIO {
		return nil, fmt.Errorf("reptile: WithMappedIO needs a .rst snapshot path; the dataset is already in memory")
	}
	return open(shard.Single(store.FromDataset(ds)), cfg)
}

// open builds the engine over a set. Every dataset runs dictionary-encoded
// through a set of N ≥ 1 shards (a CSV or in-memory dataset is the one-shard
// set), so it can be appended to, saved or cubed whatever its source. With
// WithWAL the log replays first, so recovered rows shard, cube and serve like
// any others.
func open(set *shard.Set, cfg *config) (*Engine, error) {
	o := ingest.Options{
		Shards: cfg.shards, ShardKey: cfg.shardKey, Cube: cfg.buildCube,
		Retention: cfg.retention, RetentionDim: cfg.retDim, Engine: cfg.core,
	}
	var ds *ingest.Dataset
	var err error
	if cfg.useWAL {
		ds, err = ingest.Recover(cfg.walDir, set.Schema().Name, set, o)
	} else {
		ds, err = ingest.Open(set, o)
	}
	if err != nil {
		set.Close()
		return nil, err
	}
	return &Engine{ds: ds}, nil
}

// buildConfig applies the options, converting option panics (bad hierarchy
// specs) into errors.
func buildConfig(opts []Option) (cfg *config, err error) {
	cfg = &config{}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				cfg, err = nil, e
				return
			}
			panic(r)
		}
	}()
	for _, opt := range opts {
		opt(cfg)
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("reptile: WithShards needs a non-negative count, got %d", cfg.shards)
	}
	if cfg.shardKey != "" && cfg.shards < 2 {
		return nil, fmt.Errorf("reptile: WithShardKey needs WithShards(n) with n >= 2")
	}
	if cfg.retention < 0 {
		return nil, fmt.Errorf("reptile: WithRetention needs a positive window, got %v", cfg.retention)
	}
	if cfg.retention > 0 && cfg.retDim == "" {
		return nil, fmt.Errorf("reptile: WithRetention needs a time dimension name")
	}
	if cfg.useWAL && cfg.mappedIO {
		return nil, fmt.Errorf("reptile: WithWAL and WithMappedIO are incompatible; mapped engines reject appends")
	}
	return cfg, nil
}

// NewSession starts a drill-down session with the given initial group-by
// attributes (each hierarchy's attributes must form a prefix; nil starts at
// the root). A session is a cursor: aggregations and factorised
// representations depend only on the dataset version, are built once per
// version and shared by every session on it, so repeated complaints skip
// re-aggregation. A session created during an Append binds to either the old
// or the new version, never a torn mix.
func (e *Engine) NewSession(groupBy []string) (*Session, error) {
	cs, err := e.ds.Version().Eng.NewSession(groupBy)
	if err != nil {
		return nil, err
	}
	return &Session{s: cs}, nil
}

// Append ingests rows, hot-swapping the engine's dataset: the successor
// version builds off to the side and replaces the served one atomically.
// Existing sessions keep evaluating against the version they were created on;
// new sessions see the appended rows. With WithWAL, the rows are committed to
// the log (fsynced) before the rebuild, so they survive a crash and replay on
// the next Open. With WithRetention, rows behind the updated event-time
// horizon are dropped in the same swap. Mapped and closed engines reject
// appends.
func (e *Engine) Append(rows []Row) error {
	_, err := e.ds.Append(rows)
	return err
}

// Dataset returns the engine's dataset. Callers must treat it as immutable.
// On a sharded engine it returns the schema dataset — the first shard's, by
// convention — whose rows are that shard's only; use sharded sessions (or
// Save and reopen) rather than scanning it.
func (e *Engine) Dataset() *Dataset { return e.ds.Version().Eng.Dataset() }

// Workers returns the resolved evaluation worker-pool size.
func (e *Engine) Workers() int { return e.ds.Version().Eng.Workers() }

// Shards returns the number of partitions the engine serves from, 0 when
// unsharded.
func (e *Engine) Shards() int { n, _ := e.ds.Version().Set.Partitioning(); return n }

// ShardKey returns the dimension the engine's shards are partitioned on,
// "" when unsharded.
func (e *Engine) ShardKey() string { _, key := e.ds.Version().Set.Partitioning(); return key }

// Close releases the engine's file-backed resources: the memory mapping of a
// WithMappedIO open and the write-ahead log of a WithWAL open (the log file
// itself stays on disk for the next Open to replay). It is a no-op on plain
// in-memory engines and safe to call on every Engine, so `defer eng.Close()`
// is always correct. After Close, sessions over a mapped engine must not be
// used and Append fails.
func (e *Engine) Close() error { return e.ds.Close() }

// SnapshotInfo describes a snapshot written by Engine.Save.
type SnapshotInfo struct {
	Rows     int
	Dims     int
	Measures int
	// Shards is the partition count of a sharded engine's snapshot (0 when
	// the engine is unsharded and the file holds its one shard).
	Shards int
	// CubeLevels and CubeCells describe the materialized rollup cube
	// (0/0 when the snapshot carries none; cells sum across shards).
	CubeLevels int
	CubeCells  int
}

// Save persists the engine's dataset as a dictionary-encoded .rst snapshot
// at path, durably: the file is fsynced before it is renamed into place and
// its directory after. The file holds the engine's shards — one for an
// unsharded engine — sharing one dictionary set, and Open serves it with the
// same shards again. With WithCube() among the engine's open options (or when
// the engine was opened from a cube-carrying snapshot), every shard's cube is
// stored too, so later Opens skip both CSV parsing and cube building. Loading
// the written file yields byte-identical recommendations to this engine.
//
// With WithWAL, a successful Save doubles as a checkpoint: once the file is
// durable the write-ahead log truncates (its sequence numbering continues),
// since every logged row is now captured in the .rst file. Reopen from the
// saved snapshot — reopening the original source would replay nothing and
// lose the appends.
func (e *Engine) Save(path string) (*SnapshotInfo, error) {
	v, err := e.ds.Save(path)
	if err != nil {
		return nil, err
	}
	schema := v.Set.Schema()
	info := &SnapshotInfo{Rows: v.Set.TotalRows(), Dims: len(schema.Dims), Measures: len(schema.Measures)}
	info.Shards, _ = v.Set.Partitioning()
	info.CubeLevels, info.CubeCells = v.Set.CubeSize()
	return info, nil
}

// Session holds one analyst's drill-down state over an engine. Recommend and
// Drill are safe to call concurrently; a Recommend racing a Drill evaluates
// at either drill state, never a torn mix.
type Session struct {
	s *core.Session
}

// Recommend solves the complaint-based drill-down problem: for every
// hierarchy with a remaining attribute it drills down, estimates each
// group's expected statistics with a multi-level model trained on the
// parallel groups, and ranks the groups by the repaired complaint value.
func (s *Session) Recommend(c Complaint) (*Recommendation, error) { return s.s.Recommend(c) }

// Complain parses spec with ParseComplaint and evaluates it — the one-line
// form of Recommend for the compact complaint notation.
func (s *Session) Complain(spec string) (*Recommendation, error) {
	c, err := core.ParseComplaint(spec)
	if err != nil {
		return nil, err
	}
	return s.s.Recommend(c)
}

// Drill accepts a recommendation: it extends the named hierarchy's group-by
// prefix by one attribute.
func (s *Session) Drill(hierarchy string) error { return s.s.Drill(hierarchy) }

// GroupBy returns the current group-by attributes in canonical order
// (hierarchy by hierarchy, least to most specific).
func (s *Session) GroupBy() []string { return s.s.GroupBy() }

// StateKey returns a stable encoding of the session's drill state; it
// changes on every Drill. (StateKey, Complaint.Key) is a sound
// recommendation cache key.
func (s *Session) StateKey() string { return s.s.StateKey() }
