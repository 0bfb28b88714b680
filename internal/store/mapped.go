package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/data"
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

// dimReader lazily decodes a mapped dimension column: Len/Code/Value read
// little-endian uint32 codes straight out of the mapping. It implements
// data.DimCursor, so a cursor-backed dataset serves rows without ever
// materializing the column.
type dimReader struct {
	dict []string
	raw  []byte // rows × 4 bytes of codes inside the mapping
}

func (r *dimReader) Len() int             { return len(r.raw) / 4 }
func (r *dimReader) Value(row int) string { return r.dict[r.Code(row)] }
func (r *dimReader) Dict() []string       { return r.dict }
func (r *dimReader) Code(row int) uint32  { return binary.LittleEndian.Uint32(r.raw[4*row:]) }

// measureReader lazily decodes a mapped measure column. It implements
// data.MeasureCursor.
type measureReader struct {
	raw []byte // rows × 8 bytes of float64 bits inside the mapping
}

func (r *measureReader) Len() int { return len(r.raw) / 8 }
func (r *measureReader) At(row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.raw[8*row:]))
}

// eagerDimReader adapts an in-memory Column to the same reader seam.
type eagerDimReader struct{ c *Column }

func (r eagerDimReader) Len() int             { return len(r.c.Codes) }
func (r eagerDimReader) Value(row int) string { return r.c.Dict[r.c.Codes[row]] }
func (r eagerDimReader) Dict() []string       { return r.c.Dict }
func (r eagerDimReader) Code(row int) uint32  { return r.c.Codes[row] }

// eagerMeasureReader adapts an in-memory MeasureColumn to the reader seam.
type eagerMeasureReader struct{ m *MeasureColumn }

func (r eagerMeasureReader) Len() int           { return len(r.m.Values) }
func (r eagerMeasureReader) At(row int) float64 { return r.m.Values[row] }

// DimReader returns a lazily-decoded reader over dimension i — the uniform
// column surface across open modes. For a mapped snapshot it decodes
// elements on demand from the mapping; for an eager one it wraps the heap
// slices. The reader is safe for concurrent use and implements
// data.DimCursor.
func (s *Snapshot) DimReader(i int) data.DimCursor {
	c := &s.Dims[i]
	if c.Codes == nil && s.m != nil {
		return &dimReader{dict: c.Dict, raw: s.m.data[s.dimOff[i] : s.dimOff[i]+4*s.rows]}
	}
	return eagerDimReader{c: c}
}

// MeasureReader returns a lazily-decoded reader over measure i. See
// DimReader; it implements data.MeasureCursor.
func (s *Snapshot) MeasureReader(i int) data.MeasureCursor {
	m := &s.Measures[i]
	if m.Values == nil && s.m != nil {
		return &measureReader{raw: s.m.data[s.msOff[i] : s.msOff[i]+8*s.rows]}
	}
	return eagerMeasureReader{m: m}
}

// Mapped reports whether the snapshot's columns live in a memory-mapped file
// rather than heap slices.
func (s *Snapshot) Mapped() bool { return s.m != nil }

// Close releases the snapshot's file mapping, if any; eager snapshots are
// no-ops. Shards decoded from one partitioned file share a mapping, which is
// released when the last of them closes. The snapshot (and every dataset
// derived from it) must not be used afterwards.
func (s *Snapshot) Close() error {
	if s.m == nil {
		return nil
	}
	m := s.m
	s.m = nil
	return m.close()
}

// ResidentColumnBytes reports the heap bytes held by materialized column
// payloads (4 per code, 8 per measure value) — the dominant per-dataset
// resident cost. Mapped columns contribute nothing: their payloads stay in
// the page cache. Dictionaries are heap-resident in both modes and are not
// counted.
func (s *Snapshot) ResidentColumnBytes() int64 {
	var n int64
	for i := range s.Dims {
		n += int64(len(s.Dims[i].Codes)) * 4
	}
	for i := range s.Measures {
		n += int64(len(s.Measures[i].Values)) * 8
	}
	return n
}

// OpenMappedFile memory-maps a .rst snapshot instead of decoding it onto the
// heap: the header (schema, dictionaries, offset directory) is parsed and
// CRC-checked, every validation pass streams over the mapped payloads, and
// the returned snapshot exposes its columns as lazily-decoded readers
// (DimReader/MeasureReader) with nil Codes/Values slices. Heap cost is
// O(dictionaries + cube), not O(rows), so datasets larger than RAM serve
// with flat residency. Release the mapping with Close.
func OpenMappedFile(path string) (*Snapshot, error) {
	return single(openPath(path, true, plainOnly))
}

// openMapped maps the open file f (the descriptor may be closed afterwards;
// the mapping persists) and builds the file's shard snapshots over the
// mapping, which every shard co-owns: it is released when the last one closes
// (or right here when the open fails).
func openMapped(f *os.File, want flavour) (string, []*Snapshot, error) {
	m, err := openMapping(f)
	if err != nil {
		return "", nil, err
	}
	key, shards, err := openShards(m.data, m, want)
	if err != nil {
		m.close()
		return "", nil, err
	}
	m.refs.Store(int32(len(shards)))
	return key, shards, nil
}
