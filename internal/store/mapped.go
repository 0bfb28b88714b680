package store

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// mapping is one memory-mapped .rst file, shared by every snapshot decoded
// from it (a partitioned file yields one snapshot per shard over the same
// mapping). refs counts those owners; the last Close releases the pages.
type mapping struct {
	data []byte
	refs atomic.Int32
}

func (m *mapping) close() error {
	if m.refs.Add(-1) > 0 {
		return nil
	}
	b := m.data
	m.data = nil
	return unmapFile(b)
}

// openMapping maps the open file f read-only and returns the mapping. The
// descriptor may be closed afterwards; the mapping persists until closed.
func openMapping(f *os.File) (*mapping, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("store: snapshot truncated (0 bytes)")
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("store: file too large to map (%d bytes)", size)
	}
	b, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("store: mmap: %w", err)
	}
	m := &mapping{data: b}
	m.refs.Store(1)
	return m, nil
}

// Mapped reports whether the snapshot's columns live in a memory-mapped file
// rather than heap slices. Mapped snapshots are read-only: appending,
// partitioning and retention reject them.
func (s *Snapshot) Mapped() bool { return s.m != nil }

// Close releases the snapshot's file mapping, if any; eager snapshots are
// no-ops, their one heap read freed once unreachable. Shards decoded from one
// partitioned file share a mapping, released when the last of them closes.
// The snapshot (and every dataset derived from it) must not be used after.
func (s *Snapshot) Close() error {
	if s.m == nil {
		return nil
	}
	m := s.m
	s.m = nil
	return m.close()
}

// ResidentColumnBytes reports the heap bytes held by column payloads (4 per
// code, 8 per measure value), the dominant per-dataset resident cost: an
// eager open's views into its one heap read. A mapped snapshot's columns
// contribute nothing, their payloads staying in the page cache (view's
// fallback copies go uncounted, as mmap_other.go's whole-file read always
// has). Dictionaries are heap-resident in both modes and are not counted.
func (s *Snapshot) ResidentColumnBytes() int64 {
	if s.Mapped() {
		return 0
	}
	var n int64
	for i := range s.Dims {
		n += int64(len(s.Dims[i].Codes)) * 4
	}
	for i := range s.Measures {
		n += int64(len(s.Measures[i].Values)) * 8
	}
	return n
}

// OpenMappedFile memory-maps a .rst snapshot instead of reading it onto the
// heap: the header (schema, dictionaries, offset directory) is parsed and
// CRC-checked, every validation pass streams over the mapped payloads, and
// the returned snapshot's Codes/Values and its cube's cell tables are typed
// views over the mapping (see view). Heap cost is O(dictionaries), not
// O(rows) or O(cells), so datasets larger than RAM serve with flat
// residency. Release the mapping with Close.
func OpenMappedFile(path string) (*Snapshot, error) {
	return single(openPath(path, true))
}

// openMapped maps the open file f (the descriptor may be closed afterwards;
// the mapping persists) and builds the file's shard snapshots over the
// mapping, which every shard co-owns: it is released when the last one closes
// (or right here when the open fails).
func openMapped(f *os.File) (string, []*Snapshot, error) {
	m, err := openMapping(f)
	if err != nil {
		return "", nil, err
	}
	key, shards, err := openShards(m.data, m)
	if err != nil {
		m.close()
		return "", nil, err
	}
	m.refs.Store(int32(len(shards)))
	return key, shards, nil
}
