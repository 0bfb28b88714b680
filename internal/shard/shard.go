package shard

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/store"
)

// Set is one version of a dataset held as N ≥ 1 shards: the partition key and
// one snapshot per shard, all at the same version, sharing one set of
// dictionary slices. Like snapshots, a Set is immutable once published;
// Append and Retain return a successor Set. An unpartitioned dataset is the
// one-shard Set (see Single), which behaves exactly like its snapshot.
type Set struct {
	// Key is the dimension rows are partitioned on — the root attribute of
	// one of the hierarchies. A one-shard Set needs none.
	Key string
	// Snaps holds the per-shard snapshots, in shard order.
	Snaps []*store.Snapshot
}

// Single wraps a snapshot as the one-shard Set — the trivial partition, with
// no key, so hierarchy-less tables qualify too.
func Single(snap *store.Snapshot) *Set {
	return &Set{Snaps: []*store.Snapshot{snap}}
}

// Owner returns the shard that owns a key value: FNV-1a of the value modulo
// the shard count. The hash is part of the on-disk contract — appends to a
// reopened partitioned snapshot must route rows exactly as the original
// partitioning did.
func Owner(value string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(value))
	return int(h.Sum32() % uint32(shards))
}

// DefaultKey returns the default partition key — the first hierarchy's root
// attribute — or "" when there are no hierarchies.
func DefaultKey(hierarchies []data.Hierarchy) string {
	if len(hierarchies) == 0 || len(hierarchies[0].Attrs) == 0 {
		return ""
	}
	return hierarchies[0].Attrs[0]
}

// Partition splits a snapshot into n shards on key (defaulted with
// DefaultKey when empty). Dictionaries are shared — each shard's columns
// point at the source snapshot's dictionary slices — and rows keep their
// original relative order within a shard, so partitioning is deterministic.
// Shards carry no cubes; call BuildCubes to materialize them.
func Partition(snap *store.Snapshot, n int, key string) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", n)
	}
	if key == "" {
		key = DefaultKey(snap.Hierarchies)
	}
	// n ≥ 2 shards need a key: a dataset with no hierarchy to derive one fails.
	if err := store.CheckShardKey(key, snap.Hierarchies, n); err != nil {
		return nil, err
	}
	if snap.Mapped() {
		// Routing rows would materialize every column into per-shard slices,
		// defeating the open mode's purpose; partition eagerly, then serve the
		// partitioned file mapped.
		return nil, fmt.Errorf("shard: cannot partition memory-mapped snapshot %q; re-open it eagerly to partition", snap.Name)
	}
	keyIdx := slices.IndexFunc(snap.Dims, func(c store.Column) bool { return c.Name == key })
	if keyIdx < 0 {
		return nil, fmt.Errorf("shard: partition key %q is not a dimension of %q", key, snap.Name)
	}

	// Hash each distinct key value once, then route rows by code.
	keyCol := snap.Dims[keyIdx]
	ownerOf := make([]int, len(keyCol.Dict))
	for code, v := range keyCol.Dict {
		ownerOf[code] = Owner(v, n)
	}
	counts := make([]int, n)
	for _, code := range keyCol.Codes {
		counts[ownerOf[code]]++
	}

	dims := make([][]store.Column, n)
	measures := make([][]store.MeasureColumn, n)
	for si := 0; si < n; si++ {
		dims[si] = make([]store.Column, len(snap.Dims))
		for ci, c := range snap.Dims {
			dims[si][ci] = store.Column{Name: c.Name, Dict: c.Dict, Codes: make([]uint32, 0, counts[si])}
		}
		measures[si] = make([]store.MeasureColumn, len(snap.Measures))
		for mi, m := range snap.Measures {
			measures[si][mi] = store.MeasureColumn{Name: m.Name, Values: make([]float64, 0, counts[si])}
		}
	}
	for row := 0; row < snap.NumRows(); row++ {
		si := ownerOf[keyCol.Codes[row]]
		for ci, c := range snap.Dims {
			dims[si][ci].Codes = append(dims[si][ci].Codes, c.Codes[row])
		}
		for mi, m := range snap.Measures {
			measures[si][mi].Values = append(measures[si][mi].Values, m.Values[row])
		}
	}

	set := &Set{Key: key, Snaps: make([]*store.Snapshot, n)}
	for si := 0; si < n; si++ {
		s, err := store.NewSnapshot(snap.Name, snap.Version, snap.Hierarchies, dims[si], measures[si], counts[si])
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", si, err)
		}
		set.Snaps[si] = s
	}
	return set, nil
}

// Open loads a .rst file into a Set: its key and its N ≥ 1 shards, with the
// cubes the file stores. With mapped set, every shard serves its columns and
// cube from one shared file mapping (see store.OpenShardsFile), released by
// Close.
func Open(path string, mapped bool) (*Set, error) {
	key, snaps, err := store.OpenShardsFile(path, mapped)
	if err != nil {
		return nil, err
	}
	return &Set{Key: key, Snaps: snaps}, nil
}

// Close releases the Set's file mapping, if any (a no-op for eager Sets).
func (s *Set) Close() error {
	var first error
	for _, sn := range s.Snaps {
		if err := sn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Write serializes the Set as one .rst file: its key, and per shard the
// columns and the cube, if the shard has one. A one-shard Set with no key
// writes the bytes of Snapshot.Write.
func (s *Set) Write(w io.Writer) error {
	return store.WriteSharded(w, s.Key, s.Snaps)
}

// WriteFile persists the Set as a .rst file (atomically; see Write for the
// layout).
func (s *Set) WriteFile(path string) error {
	return store.WriteFileAtomic(path, false, s.Write)
}

// N returns the shard count.
func (s *Set) N() int { return len(s.Snaps) }

// Partitioning reports the topology a partitioned Set serves from: its shard
// count and key, or 0 and "" for the one-shard Set.
func (s *Set) Partitioning() (n int, key string) {
	if len(s.Snaps) == 1 {
		return 0, ""
	}
	return len(s.Snaps), s.Key
}

// Version returns the Set's snapshot version (shared by every shard).
func (s *Set) Version() uint64 { return s.Snaps[0].Version }

// Rows returns the per-shard row counts, in shard order.
func (s *Set) Rows() []int {
	out := make([]int, len(s.Snaps))
	for i, sn := range s.Snaps {
		out[i] = sn.NumRows()
	}
	return out
}

// Schema returns a snapshot describing the dataset's columns and hierarchies
// — the first shard's, by convention; appends keep every shard's identical.
func (s *Set) Schema() *store.Snapshot { return s.Snaps[0] }

// Mapped reports whether the shards serve their columns from a memory-mapped
// file. Shards of one file share one mapping, so the first speaks for all.
func (s *Set) Mapped() bool { return s.Snaps[0].Mapped() }

// ResidentColumnBytes sums the heap bytes of materialized column payloads
// across the shards — 0 when mapped, the payloads stay on disk.
func (s *Set) ResidentColumnBytes() int64 {
	var n int64
	for _, sn := range s.Snaps {
		n += sn.ResidentColumnBytes()
	}
	return n
}

// TotalRows returns the row count across all shards.
func (s *Set) TotalRows() int {
	total := 0
	for _, sn := range s.Snaps {
		total += sn.NumRows()
	}
	return total
}

// BuildCubes materializes each shard's rollup cube (no-op per shard when one
// is already attached, silently skipped for shards the cube subsystem
// declines — serving then falls back to per-shard row scans).
func (s *Set) BuildCubes() error {
	for si, sn := range s.Snaps {
		if err := sn.BuildCube(); err != nil {
			return fmt.Errorf("shard: building cube of shard %d: %w", si, err)
		}
	}
	return nil
}

// CubeSize describes the Set's materialized cubes: the lattice's level count
// (all shards share the lattice) and the cells summed across shards, or 0, 0
// unless every shard serves from a cube.
func (s *Set) CubeSize() (levels, cells int) {
	for _, sn := range s.Snaps {
		c := sn.Cube()
		if c == nil {
			return 0, 0
		}
		levels = c.NumLevels()
		cells += c.NumCells()
	}
	return levels, cells
}

// Engine assembles the core engine over the Set: an in-process worker per
// shard, the first shard's dataset as the schema plane. The only choice made
// here is whether to gather — one shard is the engine's data plane as it is
// (no scatter span), more are gathered behind the same seam.
func (s *Set) Engine(opts core.Options) (*core.Engine, error) {
	workers := make([]core.ShardWorker, len(s.Snaps))
	var schema *data.Dataset
	for i, sn := range s.Snaps {
		ds, err := sn.Dataset()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			schema = ds
		}
		workers[i] = core.LocalShard(ds)
	}
	if len(workers) == 1 {
		return core.NewEngine(schema, opts)
	}
	return core.NewShardedEngine(schema, workers, opts)
}
