// Package store is Reptile's persistent storage layer: an immutable,
// dictionary-encoded columnar snapshot of a data.Dataset, a versioned binary
// file format (.rst) that round-trips snapshots without reparsing CSV, and
// the one batch-append routine (EncodeBatch, Batch.Extend) that produces new
// snapshot versions for live ingestion — Builder.Append and internal/shard's
// Set.Append are both thin callers of it.
//
// A Snapshot keeps each dimension as a dictionary of distinct strings plus
// one uint32 code per row, and each measure as a raw []float64 — the one
// column representation of the whole repository. Converting a snapshot to a
// data.Dataset (data.FromColumns) shares those slices, so agg.GroupBy, the
// factorizer and the cube builder scan the snapshot's own arrays.
//
// Snapshots open in two modes. Open/OpenFile decode every column and cube
// cell table into heap slices (eager). OpenMappedFile memory-maps the file
// instead: only the header — schema, dictionaries, offset directory — and
// the cube's level directory are parsed, and each column and cell table is a
// typed view ([]uint32, []uint64, []float64) over its payload inside the
// mapping, built by the alignment-checked helper in view.go (a big-endian
// host or a misaligned buffer falls back to decoding onto the heap). Every
// validation pass of the eager open — header CRC, offset directory and
// zero padding, code ranges, dictionary contents, hierarchy functional
// dependencies, the cube's key order and row coverage — runs over the views,
// so residency stays O(dictionaries) regardless of the row and cell counts. Both modes produce byte-identical
// query results; mapped snapshots (Snapshot.Mapped) reject mutation
// (appending, partitioning, retention) and must be released with Close,
// after which neither the snapshot nor any dataset derived from it may be
// read. OpenShardsFile takes either file layout below, dispatching on the
// magic after one read (or one mapping): a plain snapshot is the one-shard
// partition.
//
// # Single-snapshot file format
//
// All integers are little-endian; "uv" is an unsigned varint; "str" is a
// uv length followed by that many UTF-8 bytes; every CRC is CRC-32C
// (Castagnoli). The whole file minus its last 4 bytes is covered by a tail
// CRC.
//
// The format (version byte 2) separates a self-describing header from
// fixed-width, 8-byte-aligned column payloads located by a byte-offset
// directory, which is what makes the mapped open possible:
//
//	magic "RSTSNAP" | version byte = 2
//	name str | dataset version uv | rows uv
//	#hierarchies uv { name str | #attrs uv { attr str } }
//	#dims uv { name str | #dict uv { value str } }
//	#measures uv { name str }
//	directory: one u64 absolute offset per dim, then per measure,
//	           then cubeOff (0 = no cube section)
//	header CRC u32 (covers everything above)
//	zero padding to an 8-byte boundary
//	per dim:     rows × u32 codes, zero-padded to an 8-byte boundary
//	per measure: rows × u64 float64 bits, zero-padded likewise
//	optional cube section at cubeOff (see below)
//	tail CRC u32
//
// The decoder trusts nothing: after the header CRC verifies, every directory
// offset must be exactly where the contiguous-packing rule puts it, every
// alignment gap must be zero, and cubeOff must either be 0 (and the payloads
// must end the file) or equal the payload end. A v2 file therefore has no
// valid truncations, even re-sealed ones.
//
// Version 1 interleaved dictionaries with inline payloads. Nothing has
// written it since version 2 landed and it is no longer readable: a version
// byte of 1, plain or partitioned, gets one dedicated error asking for a
// re-run of `reptile convert` from the source CSV.
//
// The optional cube section (cube format version 2) holds the cube's cell
// tables (internal/cube's Table) in the columns' representation, so a mapped
// open views them in place too:
//
//	tag "CUBE" | cube format version byte = 2 | zero padding to 8
//	level directory: one u64 cell count per lattice level, in lattice
//	                 order (Π (depth + 1) levels over the hierarchies)
//	per level: cells × u64 keys (strictly ascending composite keys)
//	           cells × u64 float64 bits of the counts
//	           per measure: cells × u64 float64 bits of the sums, then
//	                        cells × u64 float64 bits of the sums of squares
//
// Every array starts 8-aligned because every element is 8 bytes wide. The
// decoder checks the padding and that every level's arrays end inside the
// section, which must end the file's payload; cube.FromTables checks the
// tables' contents (keys ascending inside the level's key space, counts
// integral, positive and covering the rows). The section has no CRC of its
// own: the tail CRC covers it. A version-1 section (varint keys and counts,
// its own CRC) is skipped: the file opens without its cube, as a cubeless
// file does, and `reptile convert` rewrites it in the current layout. Any
// other section version is refused.
//
// # Partitioned file format
//
// A partitioned snapshot holds one dataset hashed into N shards on a
// hierarchy-root dimension; dictionaries are shared across shards and
// written once. Cubes are not persisted: per-shard cubes are rebuilt from
// the rows after an open (shard.Set.BuildCubes), at a cost above that of a
// whole one-shot session over the file. Persisting them is ROADMAP item 4.
//
// The layout (version byte 2) mirrors the single-snapshot design — one
// CRC-checked header with a shard-major offset directory, then aligned
// per-shard payloads — so a mapped OpenShardsFile serves every shard out of
// one refcounted file mapping, and one writer (writeLayout) lays out both:
//
//	magic "RSTSHARD" | version byte = 2
//	name str | dataset version uv | partition key str
//	#hierarchies uv { name str | #attrs uv { attr str } }
//	#dims uv { name str | #dict uv { value str } }
//	#measures uv { name str }
//	#shards uv { shard rows uv }
//	directory, shard-major: per shard, one u64 offset per dim then
//	                        per measure
//	header CRC u32 | zero padding to an 8-byte boundary
//	per shard: per dim rows × u32 codes (8-aligned, zero-padded),
//	           then per measure rows × u64 float64 bits (likewise)
//	tail CRC u32
package store
