package core

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/data"
)

// ShardWorker is the engine's data plane: the one source Recommend asks, and
// the one question it asks is γ (PartialGroupBy). One suffices because the
// complained tuple's children (σ) and empty siblings (∖) are read off the
// drilled relation, whose groups already hold every row's (ancestors,
// attribute) path, and a hierarchy's distinct paths are the groups of γ over
// its own attributes. Schema questions are answered by the engine's schema
// dataset, never by a worker. The call may fail. The interface stays as the
// seam the engine's memo tests substitute (countingShard and flakyShard in
// memo_test.go); remote shard workers, which it was shaped for, are parked
// until in-process shards show a measured win (ROADMAP.md).
//
// Determinism contract: PartialGroupBy returns exactly what a row scan over
// the worker's rows would: the coded relation of agg.GroupByCodes, which
// agg.GroupBy decodes. Nothing in the engine reads a worker's strings beyond
// its dictionaries. Workers gathered into one engine code their results
// against one set of dictionaries (a shard.Set's shards share theirs, and each
// shard's cube is keyed to them); the gather refuses anything else. It merges
// in shard-index order, so results are reproducible run to run, and is itself
// a ShardWorker: an engine cannot tell one worker from many.
type ShardWorker interface {
	// PartialGroupBy aggregates the worker's rows at the given granularity.
	PartialGroupBy(attrs []string, measure string) (*agg.Result, error)
}

// localShard is the in-process ShardWorker: a dataset queried directly, from
// its cube or by row scan as agg.GroupBy decides.
type localShard struct{ ds *data.Dataset }

// LocalShard wraps one shard's dataset as an in-process ShardWorker. The
// dataset must be treated as immutable, like every engine-owned dataset.
func LocalShard(ds *data.Dataset) ShardWorker { return localShard{ds: ds} }

func (l localShard) PartialGroupBy(attrs []string, measure string) (*agg.Result, error) {
	return agg.GroupByCodes(l.ds, attrs, measure), nil
}

// NewShardedEngine builds an engine whose data plane is partitioned across
// workers. The schema dataset supplies hierarchies and measure names (by
// convention the first shard's dataset — appends keep every shard's schema
// identical). The partitioning is the caller's to own and check (a
// shard.Set); the gathered group-bys are byte-identical to one worker's over
// all the rows under the conditions internal/shard's package documentation
// states (shard-pure groups, or integer measures).
func NewShardedEngine(schema *data.Dataset, workers []ShardWorker, opts Options) (*Engine, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("core: sharded engine needs at least one shard worker")
	}
	eng, err := NewEngine(schema, opts)
	if err != nil {
		return nil, err
	}
	eng.src = &gather{workers: slices.Clone(workers), forEach: eng.forEach}
	return eng, nil
}

// gather is the ShardWorker made of ShardWorkers: it puts the question to
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

// mergePartials combines per-shard group-bys by code tuple: groups sharing a
// tuple add their statistics (Stats.Add, the Appendix A merge function G) in
// shard-index order, and agg.FromCodes — the sort every GroupBy path funnels
// through — orders the merged relation, so it cannot drift from one worker's.
// Every partial must code against the same dictionaries.
func mergePartials(attrs []string, measure string, partials []*agg.Result) (*agg.Result, error) {
	k := len(attrs)
	dicts := partials[0].Dicts
	for i, p := range partials[1:] {
		for ai, dict := range p.Dicts {
			if !data.SameDict(dict, dicts[ai]) {
				return nil, fmt.Errorf("core: shard %d codes %q against a dictionary its siblings do not share", i+1, attrs[ai])
			}
		}
	}
	sizes, total := make([]int, k), 0
	for ai, dict := range dicts {
		sizes[ai] = len(dict)
	}
	for _, p := range partials {
		total += p.Len()
	}
	tuples := data.NewTupleIndex(sizes, nil, total)
	var stats []agg.Stats
	for _, p := range partials {
		for gi, s := range p.Stats {
			if id := tuples.AddCodes(p.Codes[gi*k : (gi+1)*k]); id == len(stats) {
				stats = append(stats, s)
			} else {
				stats[id] = stats[id].Add(s)
			}
		}
	}
	_, codes := tuples.Codes()
	return agg.FromCodes(attrs, measure, dicts, nil, codes, stats), nil
}
