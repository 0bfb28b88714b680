package core

import (
	"fmt"
	"sort"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
)

// ShardWorker is the data plane of one partition of a sharded engine. The
// engine scatters every aggregation to the workers and gathers their partial
// results; schema questions (hierarchies, measure names) are answered by the
// engine's schema dataset, never by a worker. The interface is deliberately
// small and value-oriented so a later implementation can proxy a remote shard
// server over the wire protocol; every method may therefore fail.
//
// Determinism contract: each method must return exactly what the engine's
// single-node path would compute over the shard's rows alone — PartialGroupBy
// the shard-local agg.GroupBy result, HierarchyPaths the shard's distinct
// full-depth paths (any order), ChildValues the sorted distinct values of the
// drilled attribute among shard rows matching the ancestor predicate. The
// engine merges partials in shard-index order, so the gathered results are
// reproducible run to run.
type ShardWorker interface {
	// PartialGroupBy aggregates the shard's rows at the given granularity.
	PartialGroupBy(attrs []string, measure string) (*agg.Result, error)
	// HierarchyPaths enumerates the shard's distinct full-depth paths of h.
	HierarchyPaths(h data.Hierarchy) ([][]string, error)
	// ChildValues returns the sorted distinct values of attr among the
	// shard's rows matching the ancestor predicate anc. The measure names the
	// complaint's measure so cube-backed shards can pick a covering grouping.
	ChildValues(h data.Hierarchy, attr, measure string, anc data.Predicate) ([]string, error)
}

// localShard is the in-process ShardWorker: a shard's dataset queried
// directly.
type localShard struct {
	ds *data.Dataset
}

// LocalShard wraps one shard's dataset as an in-process ShardWorker. The
// dataset must be treated as immutable, like every engine-owned dataset.
func LocalShard(ds *data.Dataset) ShardWorker { return localShard{ds: ds} }

func (l localShard) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	return agg.GroupBy(l.ds, attrs, measure), nil
}

func (l localShard) HierarchyPaths(h data.Hierarchy) ([][]string, error) {
	return factor.DistinctPaths(l.ds, h), nil
}

func (l localShard) ChildValues(h data.Hierarchy, attr, measure string, anc data.Predicate) ([]string, error) {
	return childValues(l.ds, h, attr, measure, anc), nil
}

// NewShardedEngine builds an engine whose data plane is partitioned across
// workers. The schema dataset supplies hierarchies and measure names (by
// convention the first shard's dataset — appends keep every shard's schema
// identical); shardKey names the hierarchy-root dimension the rows were
// partitioned on.
//
// Aggregations scatter to the workers and merge their partial (count, sum,
// sum-of-squares) statistics via agg.Stats.Add. The merged result is
// byte-identical to the single-shard engine whenever every group is
// shard-pure — its rows all live on one shard, which holds for any grouping
// that includes the shard-key attribute (rows of a group then share the key
// value, and the hash routes them together) — or the measure takes integer
// values (float64 addition is exact below 2^53). Groupings outside both
// conditions still merge exactly in the distributive sense, but may
// reassociate floating-point additions; see internal/shard's package
// documentation for how the default key choice keeps the examples exact.
func NewShardedEngine(schema *data.Dataset, workers []ShardWorker, shardKey string, opts Options) (*Engine, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("core: sharded engine needs at least one shard worker")
	}
	eng, err := NewEngine(schema, opts)
	if err != nil {
		return nil, err
	}
	if shardKey == "" {
		return nil, fmt.Errorf("core: sharded engine needs the shard-key dimension")
	}
	root := false
	for _, h := range schema.Hierarchies {
		if h.Attrs[0] == shardKey {
			root = true
			break
		}
	}
	if !root {
		return nil, fmt.Errorf("core: shard key %q is not the root attribute of any hierarchy", shardKey)
	}
	eng.shards = append([]ShardWorker(nil), workers...)
	eng.shardKey = shardKey
	return eng, nil
}

// NumShards returns the engine's shard count: 0 for a single-node engine.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardKey returns the dimension the engine's rows are partitioned on, or ""
// for a single-node engine.
func (e *Engine) ShardKey() string { return e.shardKey }

// groupBy is the engine's aggregation entry point: the plain dataset scan (or
// cube lookup) on a single-node engine, scatter-gather over the shard workers
// otherwise. Partials are merged in shard-index order keyed by group key, then
// reassembled through agg.NewResult — the same sort every GroupBy path funnels
// through — so the merged ordering can never drift from the single-shard one.
// rec, when non-nil, records the scatter-gather phase as a "scatter" span.
func (e *Engine) groupBy(rec SpanRecorder, attrs []string, measure string) (*agg.Result, error) {
	if len(e.shards) == 0 {
		return agg.GroupBy(e.ds, attrs, measure), nil
	}
	endScatter := startSpan(rec, "scatter")
	partials := make([]*agg.Result, len(e.shards))
	errs := make([]error, len(e.shards))
	e.forEach(len(e.shards), func(i int) {
		partials[i], errs[i] = e.shards[i].PartialGroupBy(attrs, measure)
	})
	endScatter()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d group-by: %w", i, err)
		}
	}
	return mergePartials(attrs, measure, partials), nil
}

// mergePartials combines per-shard group-by results: groups sharing a key
// merge their statistics with Stats.Add (the Appendix A merge function G),
// in shard-index order.
func mergePartials(attrs []string, measure string, partials []*agg.Result) *agg.Result {
	index := make(map[string]int)
	var groups []agg.Group
	for _, p := range partials {
		for _, g := range p.Groups {
			key := g.Key()
			if gi, ok := index[key]; ok {
				groups[gi].Stats = groups[gi].Stats.Add(g.Stats)
			} else {
				index[key] = len(groups)
				groups = append(groups, g)
			}
		}
	}
	return agg.NewResult(attrs, measure, groups)
}

// shardedChildValues gathers each shard's candidate drill-down values and
// unions them. Every worker returns a sorted set, and the union is re-sorted,
// so the output is independent of shard count and gather order.
func (e *Engine) shardedChildValues(h data.Hierarchy, attr, measure string, anc data.Predicate) ([]string, error) {
	per := make([][]string, len(e.shards))
	errs := make([]error, len(e.shards))
	e.forEach(len(e.shards), func(i int) {
		per[i], errs[i] = e.shards[i].ChildValues(h, attr, measure, anc)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d child values: %w", i, err)
		}
	}
	seen := make(map[string]bool)
	var out []string
	for _, vals := range per {
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
