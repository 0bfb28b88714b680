package store

import (
	"fmt"
	"io"

	"repro/internal/data"
)

// The partitioned .rst binary layouts are documented in doc.go: one dataset
// hashed into N shards on a hierarchy-root dimension, dictionaries shared
// across the shards and written once. Version 2 (the current writer output)
// keeps a CRC-checked byte-offset directory in the header and 8-byte-aligned
// per-shard column payloads, so a mapped OpenShardsFile serves every shard out
// of one file mapping; version 1 (inline shard sections) is no longer
// readable. Materialized cubes are not persisted: per-shard cubes are rebuilt
// from the rows after an open (shard.Set.BuildCubes), at a cost above that of
// a whole one-shot session over the file. Persisting them is ROADMAP item 4.
var shardMagic = [8]byte{'R', 'S', 'T', 'S', 'H', 'A', 'R', 'D'}

// ShardFormatVersion is the current partitioned .rst format version.
const ShardFormatVersion = 2

// WriteSharded serializes the shards of one partitioned dataset in format
// version 2 (offset directory + aligned payloads), checksum included. Every
// shard must carry the same name, version, hierarchies, column schema and —
// payloads hold codes only — identical dictionaries; key names the dimension
// the rows were partitioned on.
func WriteSharded(w io.Writer, key string, shards []*Snapshot) error {
	if err := checkShardSet(key, shards); err != nil {
		return err
	}
	return writeLayout(w, key, shards)
}

// checkShardSet verifies the writer's preconditions: a non-empty shard list
// sharing one schema and one set of dictionary contents, partitioned on a
// hierarchy-root dimension.
func checkShardSet(key string, shards []*Snapshot) error {
	if len(shards) == 0 {
		return fmt.Errorf("store: partitioned snapshot needs at least one shard")
	}
	first := shards[0]
	if err := checkShardKey(key, first.Hierarchies); err != nil {
		return err
	}
	for i, s := range shards[1:] {
		si := i + 1
		if s.Name != first.Name || s.Version != first.Version {
			return fmt.Errorf("store: shard %d is %q v%d, shard 0 is %q v%d", si, s.Name, s.Version, first.Name, first.Version)
		}
		if len(s.Dims) != len(first.Dims) || len(s.Measures) != len(first.Measures) {
			return fmt.Errorf("store: shard %d schema differs from shard 0", si)
		}
		for ci, c := range s.Dims {
			fc := first.Dims[ci]
			if c.Name != fc.Name {
				return fmt.Errorf("store: shard %d dimension %d is %q, shard 0 has %q", si, ci, c.Name, fc.Name)
			}
			if !equalDict(c.Dict, fc.Dict) {
				return fmt.Errorf("store: shard %d dimension %q dictionary differs from shard 0 (dictionaries must be shared)", si, c.Name)
			}
		}
		for mi, m := range s.Measures {
			if m.Name != first.Measures[mi].Name {
				return fmt.Errorf("store: shard %d measure %d is %q, shard 0 has %q", si, mi, m.Name, first.Measures[mi].Name)
			}
		}
	}
	return nil
}

// checkShardKey verifies the partition key is the root attribute of one of
// the hierarchies — the invariant the byte-identity guarantee rests on.
func checkShardKey(key string, hierarchies []data.Hierarchy) error {
	if key == "" {
		return fmt.Errorf("store: partitioned snapshot needs a partition key")
	}
	for _, h := range hierarchies {
		if len(h.Attrs) > 0 && h.Attrs[0] == key {
			return nil
		}
	}
	return fmt.Errorf("store: partition key %q is not the root attribute of any hierarchy", key)
}

// equalDict reports whether two dictionaries hold the same values in the same
// order. Shards produced by internal/shard share one backing array, so the
// common case short-circuits on identity.
func equalDict(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OpenShardsFile loads either .rst layout as a shard list, reading (or, with
// mapped set, memory-mapping) the file once and dispatching on its magic: a
// partitioned file yields its key and N shards — sharing one set of dictionary
// slices, in shard order — a plain snapshot is the one-shard partition and
// yields no key. Every open verifies the file and header checksums and each
// shard's structural invariants and hierarchy functional dependencies. Mapped
// shards are typed views over one file mapping, released when the last of
// them is Closed.
func OpenShardsFile(path string, mapped bool) (key string, shards []*Snapshot, err error) {
	return openPath(path, mapped, false)
}

// decodeSharded builds the shard snapshots of a partitioned file from a
// decoder positioned after the version byte — eagerly, or as views over m
// (see decodeSnapshot) — then validates the partition key and
// every shard's structural invariants.
func decodeSharded(d *decoder, m *mapping) (string, []*Snapshot, error) {
	h, err := parseShardHeaderV2(d)
	if err != nil {
		return "", nil, err
	}
	if err := checkShardKey(h.key, h.hierarchies); err != nil {
		return "", nil, err
	}
	shards := make([]*Snapshot, len(h.shardRows))
	for si, rows := range h.shardRows {
		s := h.snapshot(d, m, rows, h.dimOff[si], h.msOff[si])
		if d.err != nil {
			return "", nil, fmt.Errorf("store: decoding partitioned snapshot: %w", d.err)
		}
		if err := s.validate(); err != nil {
			return "", nil, fmt.Errorf("store: shard %d: %w", si, err)
		}
		shards[si] = s
	}
	return h.key, shards, nil
}

// shardHeaderV2 is the parsed v2 partitioned header: shared schema plus the
// validated per-shard byte-offset directory.
type shardHeaderV2 struct {
	schemaV2
	key       string
	shardRows []int
	dimOff    [][]int // [shard][dim] absolute payload offsets
	msOff     [][]int // [shard][measure]
}

// parseShardHeaderV2 parses and fully validates a v2 partitioned header from
// a decoder positioned after the version byte: field structure, the header's
// own CRC, and the offset directory (in-bounds, contiguous, 8-aligned, zero
// padding, ending exactly at the file's tail CRC). After it returns, every
// shard payload's location is trusted.
func parseShardHeaderV2(d *decoder) (*shardHeaderV2, error) {
	h := &shardHeaderV2{}
	h.name = d.string()
	h.version = d.uvarint()
	h.key = d.string()
	h.decodeSchema(d)
	nshards := d.count()
	if d.err == nil && nshards == 0 {
		return nil, fmt.Errorf("store: partitioned snapshot has no shards")
	}
	for si := 0; si < nshards && d.err == nil; si++ {
		rows := d.uvarint()
		if rows > maxSaneCount {
			return nil, fmt.Errorf("store: shard %d: implausible row count %d", si, rows)
		}
		h.shardRows = append(h.shardRows, int(rows))
	}
	for range h.shardRows {
		dimOff, msOff := h.decodeOffsets(d)
		h.dimOff = append(h.dimOff, dimOff)
		h.msOff = append(h.msOff, msOff)
	}
	expected, err := d.headerEnd("partitioned snapshot")
	if err != nil {
		return nil, err
	}
	for si, rows := range h.shardRows {
		if expected, err = h.checkPayloads(d.b, expected, rows, h.dimOff[si], h.msOff[si], fmt.Sprintf("shard %d ", si)); err != nil {
			return nil, err
		}
	}
	// Partitioned files carry no cube section: the payloads end the file.
	if expected != len(d.b) {
		return nil, fmt.Errorf("store: %d trailing bytes after partitioned snapshot payload", len(d.b)-expected)
	}
	return h, nil
}
