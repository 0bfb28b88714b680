// Package shard partitions a dataset into N shards and assembles the sharded
// engine over them: each shard is its own store.Snapshot (and, optionally,
// its own cube.Cube) holding the rows whose shard-key value hashes to it, and
// the engine scatters every aggregation to per-shard workers and merges their
// partial (count, sum, sum-of-squares) statistics with agg.Stats.Add — the
// Appendix A merge function G — before any model fits. This is the
// decomposition-then-combine structure that makes Reptile's aggregates
// distributive, applied across process-internal partitions; the
// core.ShardWorker seam the engine talks through is the point a later change
// swaps local workers for remote shard servers speaking the wire protocol.
//
// # One shard
//
// A partition into one part is still a partition, so a Set with N = 1 is how
// every unpartitioned dataset is held (Single wraps a snapshot; Open returns
// one for a plain .rst file) and serving code never branches on "sharded or
// not". What the shard count changes is decided here, from the count itself:
// a one-shard Set needs no Key (tables without hierarchies qualify), Engine
// hands the engine the shard's dataset as its data plane instead of gathering
// over one part — the engine runs the same code either way; only the scatter
// span and NumShards() == 0 tell — Append extends the one snapshot without routing or the cross-shard FD
// check (the snapshot's own validation already covers every dependency), and
// Write emits the plain RSTSNAP layout — cube section included —
// byte-identical to Snapshot.Write. Everything else (Retain, BuildCubes,
// Rows, Close) is the same loop over one element.
//
// # Partitioning
//
// Rows are routed by an FNV-1a hash of their shard-key value modulo the
// shard count. The key must be the root attribute of one of the dataset's
// hierarchies (the default is the first hierarchy's root), and dictionaries
// are shared across shards: a shard's columns hold codes into the same
// dictionary slices as its siblings, so partitioning costs one pass over the
// codes and no string is stored twice — and the engine merges per-shard
// group-bys by code, never by string (after an Append a shard's cube may hold
// a shorter, predecessor dictionary: a prefix of its siblings', which is all
// the merge requires). Within a shard, rows keep their
// original relative order, which makes partitioning deterministic and
// per-shard scans reproducible.
//
// # Byte-identity
//
// Merging per-shard partials reassociates floating-point additions, so the
// sharded engine is byte-identical to the unsharded one exactly when no
// group's statistics are actually split across shards, or when splitting
// cannot lose bits:
//
//   - A grouping that includes the shard-key attribute is shard-pure: all
//     rows of a group share the key value and therefore hash to one shard,
//     so each group's partial is already the whole and the merge adds zeros.
//     Because the key is a hierarchy root, every drill-down grouping that
//     touches the key's hierarchy at depth ≥ 1 is pure.
//   - Integer-valued measures add exactly in float64 (below 2^53), so even
//     impure groupings merge bit-identically.
//
// Every examples/ dataset falls under one of the two conditions with the
// default key, which is what the equivalence tests in this package pin down.
// Groupings outside both conditions still merge exactly in the distributive
// sense — counts are always exact — but the low-order float bits of sums may
// differ from a single scan's.
//
// # Appends
//
// Set.Append validates and dictionary-encodes the batch once
// (store.EncodeBatch, in batch row order, so codes are deterministic), routes
// each appended row to its owning shard, and produces a successor Set with
// every shard at Version+1 (store.Batch.Extend per shard): untouched
// shards share their columns and keep their cubes, touched shards get a
// delta cube built over just their new rows and merged in (cube.Merge), and
// a cross-shard functional-dependency check rejects batches whose violations
// span shards — a per-shard validation alone cannot see those.
package shard
