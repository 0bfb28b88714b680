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
// so residency stays O(dictionaries) regardless of the row and cell counts.
// Both modes produce byte-identical query results; mapped snapshots
// (Snapshot.Mapped) reject mutation (appending, partitioning, retention) and
// must be released with Close, after which neither the snapshot nor any
// dataset derived from it may be read.
//
// # File format
//
// A .rst file holds one dataset version as N ≥ 1 shards: rows hashed on a
// hierarchy-root dimension (the partition key) into per-shard column
// payloads, each shard followed by its own cube section when it has a cube.
// A plain snapshot is the one-shard case, with no key. Dictionaries are
// shared across the shards and written once. OpenShardsFile returns every
// shard; OpenFile and OpenMappedFile return the one shard of a one-shard
// file and refuse more.
//
// All integers are little-endian; "uv" is an unsigned varint; "str" is a
// uv length followed by that many UTF-8 bytes; every CRC is CRC-32C
// (Castagnoli). A self-describing header is followed by fixed-width,
// 8-byte-aligned payloads located by a byte-offset directory, which is what
// makes the mapped open possible (version byte 3):
//
//	magic "RSTSNAP" | version byte = 3
//	name str | dataset version uv | partition key str ("" allowed for one shard)
//	#hierarchies uv { name str | #attrs uv { attr str } }
//	#dims uv { name str | #dict uv { value str } }
//	#measures uv { name str }
//	#shards uv { shard rows uv }
//	directory, shard-major: per shard, one u64 absolute offset per dim,
//	           then per measure, then its cubeOff (0 = no cube section)
//	header CRC u32 (covers everything above)
//	zero padding to an 8-byte boundary
//	per shard: per dim rows × u32 codes, zero-padded to an 8-byte boundary
//	           per measure rows × u64 float64 bits, zero-padded likewise
//	           its cube section at cubeOff, if any (see below)
//	tail CRC u32 (covers the whole file before it)
//
// The decoder trusts nothing: after the header CRC verifies, every directory
// offset must be exactly where the contiguous-packing rule puts it, every
// alignment gap must be zero, a shard's cubeOff must be 0 or equal the end
// of its payloads, and the last section must end the file. A file therefore
// has no valid truncations, even re-sealed ones.
//
// Version 2 wrote the same design as two layouts, and both are still read as
// the version-3 cases they are. A plain version-2 file (magic "RSTSNAP") is
// one shard with no key: its header holds the row count right after the
// dataset version instead of a key, and no shard count. A partitioned
// version-2 file (magic "RSTSHARD") has the key and shard counts of version 3
// but no cube offsets in its directory: its shards have no cubes. `reptile
// convert` rewrites either as version 3. Version 1 interleaved dictionaries
// with inline payloads and is no longer readable: a version byte of 1, under
// either magic, gets one dedicated error asking for a re-run of `reptile
// convert` from the source CSV.
//
// A cube section (cube format version 2) holds the shard's cube's cell tables
// (internal/cube's Table) in the columns' representation, so a mapped open
// views them in place too:
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
// keys are composites over the shared dictionaries' sizes, so a cube must
// be keyed to its shard's current dictionaries (Batch.Extend re-keys a
// carried cube when an append grows them). The decoder checks the padding
// and that every level's arrays end inside the file, and the section must
// end where the next shard's payloads begin, or the file; cube.FromTables
// checks the tables' contents (keys ascending inside the level's key space,
// counts integral, positive and covering the shard's rows). The section has
// no CRC of its own: the tail CRC covers it. A version-1 section (varint keys
// and counts, its own CRC), which only a plain version-2 file can hold, is
// skipped: the file opens without its cube, as a cubeless file does. Any
// other section version is refused.
package store
