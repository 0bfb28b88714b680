package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/data"
)

// The partitioned .rst binary layouts are documented in doc.go: one dataset
// hashed into N shards on a hierarchy-root dimension, dictionaries shared
// across the shards and written once. Version 2 (the current writer output)
// keeps a CRC-checked byte-offset directory in the header and 8-byte-aligned
// per-shard column payloads, so OpenShardedMappedFile can serve every shard out
// of one file mapping; version 1 (inline shard sections) is no longer
// readable. Materialized cubes are not persisted: per-shard cubes are cheap
// to rebuild at registration time.
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
	first := shards[0]
	// Stage the header in memory — see Snapshot.Write: the directory holds
	// absolute payload offsets, so the header's size must be known before the
	// first payload byte is placed.
	var hb bytes.Buffer
	hw := bufio.NewWriterSize(&hb, 1<<12)
	e := &encoder{w: hw}
	e.bytes(shardMagic[:])
	e.byte(ShardFormatVersion)
	e.string(first.Name)
	e.uvarint(first.Version)
	e.string(key)
	e.uvarint(uint64(len(first.Hierarchies)))
	for _, hr := range first.Hierarchies {
		e.string(hr.Name)
		e.uvarint(uint64(len(hr.Attrs)))
		for _, a := range hr.Attrs {
			e.string(a)
		}
	}
	e.uvarint(uint64(len(first.Dims)))
	for _, c := range first.Dims {
		e.string(c.Name)
		e.uvarint(uint64(len(c.Dict)))
		for _, v := range c.Dict {
			e.string(v)
		}
	}
	e.uvarint(uint64(len(first.Measures)))
	for _, m := range first.Measures {
		e.string(m.Name)
	}
	e.uvarint(uint64(len(shards)))
	for _, s := range shards {
		e.uvarint(uint64(s.rows))
	}
	if e.err == nil {
		e.err = hw.Flush()
	}
	if e.err != nil {
		return fmt.Errorf("store: writing partitioned snapshot: %w", e.err)
	}

	// Directory: per shard, one u64 offset per dimension then per measure,
	// followed by the header CRC.
	perShard := len(first.Dims) + len(first.Measures)
	headerLen := hb.Len() + 8*len(shards)*perShard + 4
	off := align8(headerLen)
	offs := make([]uint64, 0, len(shards)*perShard)
	for _, s := range shards {
		for range s.Dims {
			offs = append(offs, uint64(off))
			off = align8(off + 4*s.rows)
		}
		for range s.Measures {
			offs = append(offs, uint64(off))
			off = align8(off + 8*s.rows)
		}
	}
	var u8 [8]byte
	for _, o := range offs {
		binary.LittleEndian.PutUint64(u8[:], o)
		hb.Write(u8[:])
	}
	binary.LittleEndian.PutUint32(u8[:4], crc32.Checksum(hb.Bytes(), castagnoli))
	hb.Write(u8[:4])

	h := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, h), 1<<16)
	we := &encoder{w: bw}
	we.bytes(hb.Bytes())
	we.pad(align8(headerLen) - headerLen)
	for _, s := range shards {
		for _, c := range s.Dims {
			we.codes(c.Codes)
			we.pad(align8(4*s.rows) - 4*s.rows)
		}
		for _, m := range s.Measures {
			we.floats(m.Values)
			we.pad(align8(8*s.rows) - 8*s.rows)
		}
	}
	if we.err != nil {
		return fmt.Errorf("store: writing partitioned snapshot: %w", we.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: writing partitioned snapshot: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("store: writing partitioned snapshot checksum: %w", err)
	}
	return nil
}

// WriteShardedFile writes the partitioned snapshot to path atomically
// (temp file + rename).
func WriteShardedFile(path, key string, shards []*Snapshot) error {
	return WriteFileAtomic(path, false, func(w io.Writer) error { return WriteSharded(w, key, shards) })
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

// OpenSharded decodes and validates a partitioned snapshot from r: the file
// and header checksums, each shard's structural invariants and hierarchy
// functional dependencies. The returned snapshots share one set of
// dictionary slices, in shard order.
func OpenSharded(r io.Reader) (key string, shards []*Snapshot, err error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return "", nil, fmt.Errorf("store: reading partitioned snapshot: %w", err)
	}
	return openShards(b, nil, partitionedOnly)
}

// OpenShardedFile loads a partitioned .rst snapshot from disk.
func OpenShardedFile(path string) (string, []*Snapshot, error) {
	return openPath(path, false, partitionedOnly)
}

// OpenShardsFile loads either .rst layout as a shard list, reading (or, with
// mapped set, memory-mapping) the file once and dispatching on its magic: a
// partitioned file yields its key and N shards, a plain snapshot is the
// one-shard partition and yields no key. Mapped shards share one file
// mapping, released when the last of them is Closed.
func OpenShardsFile(path string, mapped bool) (key string, shards []*Snapshot, err error) {
	return openPath(path, mapped, anyFlavour)
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

// OpenShardedMappedFile memory-maps a partitioned .rst snapshot: the header
// (schema, shared dictionaries, offset directory) is parsed and CRC-checked,
// and every shard's columns are typed views over one shared file mapping. The mapping is released when the last shard is Closed.
func OpenShardedMappedFile(path string) (string, []*Snapshot, error) {
	return openPath(path, true, partitionedOnly)
}
