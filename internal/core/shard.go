package core

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
)

// ShardWorker is the engine's data plane: the one source Recommend asks, for
// γ (PartialGroupBy) and for a hierarchy's distinct paths (HierarchyPaths).
// Two questions suffice because the complained tuple's children (σ) and empty
// siblings (∖) are read off the drilled relation, whose groups already hold
// every row's (ancestors, attribute) path. Schema questions are answered by
// the engine's schema dataset, never by a worker. The interface is small and
// value-oriented so a later implementation can proxy a remote shard server;
// every method may therefore fail.
//
// Determinism contract: each method returns exactly what a row scan over the
// worker's rows would — the agg.GroupBy result, the distinct full-depth paths
// (any order). Workers gathered into one engine code their results against
// dictionaries shared up to append-only growth: per attribute each worker's
// is a prefix of the longest (a shard.Set's are — a shard an Append leaves
// untouched keeps its cube's shorter ones); the gather refuses anything else.
// It merges in shard-index order, so results are reproducible run to run, and
// is itself a ShardWorker: an engine cannot tell one worker from many.
type ShardWorker interface {
	// PartialGroupBy aggregates the worker's rows at the given granularity.
	PartialGroupBy(attrs []string, measure string) (*agg.Result, error)
	// HierarchyPaths enumerates the worker's distinct full-depth paths of h.
	HierarchyPaths(h data.Hierarchy) ([][]string, error)
}

// localShard is the in-process ShardWorker: a dataset queried directly, from
// its cube or by row scan as agg.GroupBy and factor.DistinctPaths decide.
type localShard struct{ ds *data.Dataset }

// LocalShard wraps one shard's dataset as an in-process ShardWorker. The
// dataset must be treated as immutable, like every engine-owned dataset.
func LocalShard(ds *data.Dataset) ShardWorker { return localShard{ds: ds} }

func (l localShard) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	return agg.GroupBy(l.ds, attrs, measure), nil
}

func (l localShard) HierarchyPaths(h data.Hierarchy) ([][]string, error) {
	return factor.DistinctPaths(l.ds, h), nil
}

// NewShardedEngine builds an engine whose data plane is partitioned across
// workers. The schema dataset supplies hierarchies and measure names (by
// convention the first shard's dataset — appends keep every shard's schema
// identical); shardKey names the hierarchy-root dimension the rows were
// partitioned on. The gathered group-bys are byte-identical to one worker's
// over all the rows under the conditions internal/shard's package
// documentation states (shard-pure groups, or integer measures).
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
	if !slices.ContainsFunc(schema.Hierarchies, func(h data.Hierarchy) bool { return h.Attrs[0] == shardKey }) {
		return nil, fmt.Errorf("core: shard key %q is not the root attribute of any hierarchy", shardKey)
	}
	eng.src = &gather{workers: slices.Clone(workers), forEach: eng.forEach}
	eng.shards, eng.shardKey = len(workers), shardKey
	return eng, nil
}

// NumShards returns the engine's shard count: 0 for a single-node engine.
func (e *Engine) NumShards() int { return e.shards }

// ShardKey returns the dimension the engine's rows are partitioned on, or ""
// for a single-node engine.
func (e *Engine) ShardKey() string { return e.shardKey }

// gather is the ShardWorker made of ShardWorkers: it puts each question to
// its workers and merges their answers.
type gather struct {
	workers []ShardWorker
	forEach func(n int, fn func(i int)) // the engine's worker budget
}

func (g *gather) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	partials := make([]*agg.Result, len(g.workers))
	errs := make([]error, len(g.workers))
	g.forEach(len(g.workers), func(i int) {
		partials[i], errs[i] = g.workers[i].PartialGroupBy(attrs, measure)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d group-by: %w", i, err)
		}
	}
	return mergePartials(attrs, measure, partials)
}

// HierarchyPaths unions the workers' path sets; factor.NewSource sorts and
// deduplicates, so the engine's source is identical to a single worker's (and
// its FD check still sees cross-shard violations).
func (g *gather) HierarchyPaths(h data.Hierarchy) ([][]string, error) {
	var all [][]string
	for i, w := range g.workers {
		paths, err := w.HierarchyPaths(h)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d hierarchy paths: %w", i, err)
		}
		all = append(all, paths...)
	}
	return all, nil
}

// mergePartials combines per-shard group-bys by code tuple: groups sharing a
// tuple add their statistics (Stats.Add, the Appendix A merge function G) in
// shard-index order, and agg.FromCodes — the sort every GroupBy path funnels
// through — orders the merged relation, so it cannot drift from one worker's.
// Codes are read against each attribute's longest dictionary, which every
// other partial's must be a prefix of.
func mergePartials(attrs []string, measure string, partials []*agg.Result) (*agg.Result, error) {
	k := len(attrs)
	dicts := make([][]string, k)
	for ai := range dicts {
		for i, p := range partials {
			short, long := dicts[ai], p.Dicts[ai]
			if len(short) > len(long) {
				short, long = long, short
			}
			if !slices.Equal(short, long[:len(short)]) {
				return nil, fmt.Errorf("core: shard %d codes %q against a dictionary that is not a prefix of its siblings'", i, attrs[ai])
			}
			dicts[ai] = long
		}
	}
	sizes, total := make([]int, k), 0
	for ai, dict := range dicts {
		sizes[ai] = len(dict)
	}
	for _, p := range partials {
		total += len(p.Groups)
	}
	tuples := data.NewTupleIndex(sizes, nil, total)
	var groups []agg.Group
	for _, p := range partials {
		for gi, g := range p.Groups {
			if id := tuples.AddCodes(p.Codes[gi*k : (gi+1)*k]); id == len(groups) {
				groups = append(groups, agg.Group{Stats: g.Stats})
			} else {
				groups[id].Stats = groups[id].Stats.Add(g.Stats)
			}
		}
	}
	_, codes := tuples.Codes()
	return agg.FromCodes(attrs, measure, dicts, nil, codes, groups), nil
}
