// Package cube materializes the hierarchy-rollup lattice of a dataset: one
// precomputed aggregate table per combination of per-hierarchy drill depths,
// so that every group-by the Recommend loop issues over hierarchy prefixes is
// answered from precomputed cells in O(groups) instead of rescanning rows.
//
// # The lattice
//
// A dataset with hierarchies H_1..H_k of depths D_1..D_k has one lattice
// level per depth vector (d_1..d_k), d_i ∈ 0..D_i — the classic data-cube
// lattice restricted to hierarchy prefixes, which is exactly the space of
// groupings core.Session can reach by drilling. Each level stores its groups
// as cells keyed by a mixed-radix composite of the attributes' dictionary
// codes (the same key construction as agg.GroupBy's row scan), with
// the distributive triple (count, sum, sum of squares) per measure. The
// lattice is built a level at a time on agg's bucketing kernel
// (data.TupleIndex): the rows' paths along each hierarchy prefix are numbered
// once, and a level's cells are tuples of those path ids — a key space the
// hierarchies' functional dependencies bound by the product of per-hierarchy
// path counts, small enough to address directly where the product of the
// dictionary sizes is not. Within each cell the accumulation visits rows in
// row order, which makes every level's statistics bit-identical to the row
// scan it replaces — the property the byte-identity guarantees of the
// serving stack rest on.
//
// # Query paths
//
// Cube.GroupBy answers any grouping whose attributes form per-hierarchy
// prefixes (in any attribute order) straight from a materialized level: a
// cell's key splits into dictionary codes — an odometer over the level's
// ascending keys, dividing only where a digit overflows — which go to
// agg.FromCodes with the statistics. Group order is decided there, by ranks
// a cube computes on its first query: per dictionary, and per hierarchy path
// (keyed by its last value), so a drill-down sorts on the product of its
// path counts. It implements agg.Materialized, so datasets carrying a cube
// attachment (data.Dataset.SetRollup) accelerate agg.GroupBy transparently
// and bit-identically. HierarchyPaths enumerates a hierarchy's distinct
// full-depth paths for the factorizer (factor.PathProvider) from the level
// that drills only that hierarchy.
//
// # Maintenance and persistence
//
// Cubes are immutable and safe for concurrent use. Live ingestion maintains
// them without rebuilding: BuildRows computes a delta cube over just the
// appended batch, and Merge folds it into the predecessor version cell by
// cell (Stats.Add), re-keying the predecessor's cells when appended values
// grew the dictionaries. Merged cells absorb the batch's subtotal in one
// addition, so — unlike built cubes — a merged cube's sums can differ from a
// full rescan in the last floating-point bit when the batch carried
// non-integral values (counts stay exact; see Merge). internal/store
// persists a cube as its cell tables (Tables), fixed-width arrays in an
// optional trailing section of the .rst format, and reassembles it with
// FromTables, which validates the tables and keeps them without copying — on
// a mapped open they stay views over the file. The cube package parses no
// bytes; files without the section load exactly as before.
package cube
