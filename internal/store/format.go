package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/cube"
	"repro/internal/data"
)

// The .rst binary layouts are documented in doc.go. Version 2 (the current
// writer output) separates a self-describing header — schema, dictionaries,
// and a CRC-checked byte-offset directory — from fixed-width, 8-byte-aligned
// column payloads, so OpenMappedFile can expose columns (and the cube
// section's cell tables, laid out the same way) straight out of a
// memory-mapped file without decoding them into heap slices. Version 1
// (inline payloads) is no longer readable.
var magic = [7]byte{'R', 'S', 'T', 'S', 'N', 'A', 'P'}

// FormatVersion is the current .rst format version.
const FormatVersion = 2

// cubeTag introduces the optional materialized-cube section.
var cubeTag = [4]byte{'C', 'U', 'B', 'E'}

// CubeFormatVersion is the current cube section format version: fixed-width,
// 8-byte-aligned cell tables. Version 1 (varint keys and counts) is skipped
// on open, which leaves the file without its cube.
const CubeFormatVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSaneCount bounds decoded element counts so a corrupt or hostile header
// cannot trigger a huge allocation before the length checks run.
const maxSaneCount = 1 << 31

// align8 rounds n up to the next multiple of 8 — column payloads start on
// 8-byte boundaries so a mapped reader can decode fixed-width elements at
// aligned addresses.
func align8(n int) int { return (n + 7) &^ 7 }

// Write serializes the snapshot in .rst format version 2, checksum included.
// Mapped snapshots stream straight out of their mapping, so Save works
// without materializing columns on the heap.
func (s *Snapshot) Write(w io.Writer) error {
	return writeLayout(w, "", []*Snapshot{s})
}

// writeLayout is the one .rst writer. Both layouts (doc.go) are the same five
// stages — staged header, schema, offset directory sealed by the header CRC,
// aligned column payloads, tail CRC — and differ only in what frames them: an
// empty key writes the single-snapshot layout of shards[0] (row count in the
// header, a cube offset closing the directory, the cube section after the
// payloads), a key the partitioned one (the key and per-shard row counts in
// the header, a shard-major directory, no cubes). The shards share the schema
// and dictionaries of shards[0] (WriteSharded checks).
func writeLayout(w io.Writer, key string, shards []*Snapshot) error {
	first, plain, kind := shards[0], key == "", "snapshot"
	if !plain {
		kind = "partitioned snapshot"
	}
	// Stage the header in memory: the byte-offset directory holds absolute
	// payload offsets, so the header's size must be known before the first
	// payload byte is placed. The header is small — schema plus
	// dictionaries — while payloads, the part proportional to row count,
	// stream straight to w.
	var hb bytes.Buffer
	hw := bufio.NewWriterSize(&hb, 1<<12)
	e := &encoder{w: hw}
	if plain {
		e.bytes(magic[:])
		e.byte(FormatVersion)
	} else {
		e.bytes(shardMagic[:])
		e.byte(ShardFormatVersion)
	}
	e.string(first.Name)
	e.uvarint(first.Version)
	if plain {
		e.uvarint(uint64(first.rows))
	} else {
		e.string(key)
	}
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
	if !plain {
		e.uvarint(uint64(len(shards)))
		for _, s := range shards {
			e.uvarint(uint64(s.rows))
		}
	}
	if e.err == nil {
		e.err = hw.Flush()
	}
	if e.err != nil {
		return fmt.Errorf("store: writing %s: %w", kind, e.err)
	}

	// Directory: per shard, one u64 offset per dimension then per measure;
	// the single-snapshot layout closes it with the cube section offset
	// (0 = no cube). Then the header CRC.
	nOff := len(shards) * (len(first.Dims) + len(first.Measures))
	if plain {
		nOff++
	}
	headerLen := hb.Len() + 8*nOff + 4
	off := align8(headerLen)
	offs := make([]uint64, 0, nOff)
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
	if plain {
		cubeOff := uint64(0)
		if first.cube != nil {
			cubeOff = uint64(off)
		}
		offs = append(offs, cubeOff)
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
	if plain && first.cube != nil {
		tables := first.cube.Tables()
		cells := make([]uint64, len(tables))
		for li, t := range tables {
			cells[li] = uint64(len(t.Keys))
		}
		we.bytes(cubeTag[:])
		we.byte(CubeFormatVersion)
		we.pad(3) // to the next 8-byte boundary
		we.words(cells)
		for _, t := range tables {
			we.words(t.Keys)
			we.floats(t.Counts)
			for mi := range t.Sums {
				we.floats(t.Sums[mi])
				we.floats(t.SumSqs[mi])
			}
		}
	}
	if we.err == nil {
		we.err = bw.Flush()
	}
	if we.err != nil {
		return fmt.Errorf("store: writing %s: %w", kind, we.err)
	}
	// The checksum covers everything flushed so far and is written to the
	// destination only (hashing it too would make verification impossible).
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("store: writing %s checksum: %w", kind, err)
	}
	return nil
}

// WriteFile writes the snapshot to path atomically (temp file + rename).
func (s *Snapshot) WriteFile(path string) error {
	return WriteFileAtomic(path, false, s.Write)
}

// WriteFileAtomic publishes write's output at path through a temp file and a
// rename, so readers see the old file or the new one, never a torn one. With
// durable set, the temp file is fsynced before the rename and the directory
// after it: once the call returns, the file survives a crash — the
// checkpoint contract (a log may be truncated only after this).
func WriteFileAtomic(path string, durable bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if !durable {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Open decodes and validates a snapshot from r (checksum, structural
// invariants, hierarchy functional dependencies).
func Open(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return single(openShards(b, nil, true))
}

// OpenFile loads a .rst snapshot from disk.
func OpenFile(path string) (*Snapshot, error) {
	return single(openPath(path, false, true))
}

// single unwraps the one snapshot of a plain open.
func single(_ string, shards []*Snapshot, err error) (*Snapshot, error) {
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// errFormatV1 answers every open of a version-1 file, plain or partitioned.
var errFormatV1 = errors.New("store: format version 1 is no longer readable; re-run `reptile convert` from the source CSV")

// openPath opens the .rst file at path — eagerly from one read, or mapped —
// and adds the path to any decode error. plainOnly refuses the partitioned
// layout (the single-snapshot opens).
func openPath(path string, mapped, plainOnly bool) (key string, shards []*Snapshot, err error) {
	if mapped {
		f, ferr := os.Open(path)
		if ferr != nil {
			return "", nil, ferr
		}
		defer f.Close()
		key, shards, err = openMapped(f, plainOnly)
	} else {
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return "", nil, rerr
		}
		key, shards, err = openShards(b, nil, plainOnly)
	}
	if err != nil {
		return "", nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return key, shards, nil
}

// openShards decodes either .rst layout from b, sniffing the magic once: a
// plain snapshot is the one-shard partition with no key. With m set, b is
// m's mapped bytes and the shards' columns are views over it; otherwise
// every column is decoded onto the heap.
func openShards(b []byte, m *mapping, plainOnly bool) (string, []*Snapshot, error) {
	d, sharded, err := openEnvelope(b)
	if err != nil {
		return "", nil, err
	}
	switch {
	case sharded && plainOnly:
		return "", nil, fmt.Errorf("store: file is a partitioned snapshot; open it with OpenShardsFile")
	case sharded:
		return decodeSharded(d, m)
	}
	s, err := decodeSnapshot(d, m)
	if err != nil {
		return "", nil, err
	}
	return "", []*Snapshot{s}, nil
}

// openEnvelope verifies the parts common to both layouts — minimum length,
// whole-file tail CRC, magic, format version — and returns a decoder
// positioned after the version byte plus which layout the magic announced.
func openEnvelope(b []byte) (d *decoder, sharded bool, err error) {
	if len(b) < len(magic)+1+4 {
		return nil, false, fmt.Errorf("store: snapshot truncated (%d bytes)", len(b))
	}
	payload, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, false, fmt.Errorf("store: snapshot checksum mismatch (file %08x, computed %08x)", want, got)
	}
	d = &decoder{b: payload}
	want := byte(FormatVersion)
	switch {
	case bytes.HasPrefix(payload, magic[:]):
		d.off = len(magic)
	case bytes.HasPrefix(payload, shardMagic[:]):
		d.off, sharded, want = len(shardMagic), true, ShardFormatVersion
	default:
		return nil, false, fmt.Errorf("store: bad magic %q: not a .rst snapshot", payload[:len(magic)])
	}
	switch v := d.byte(); {
	case d.err != nil:
		return nil, false, fmt.Errorf("store: decoding snapshot: %w", d.err)
	case v == 1:
		return nil, false, errFormatV1
	case v != want:
		return nil, false, fmt.Errorf("store: unsupported format version %d (want %d)", v, want)
	}
	return d, sharded, nil
}

// decodeSnapshot builds a plain snapshot — eager, or mapped over m — from a
// decoder positioned after the version byte.
func decodeSnapshot(d *decoder, m *mapping) (*Snapshot, error) {
	h, err := parseHeaderV2(d)
	if err != nil {
		return nil, err
	}
	s := h.snapshot(d, m, h.rows, h.dimOff, h.msOff)
	var tables []cube.Table
	if d.err == nil && h.cubeOff != 0 {
		d.off = h.cubeOff
		tables = d.cubeSection(h.hierarchies, len(h.measureNames), m != nil)
		if d.err == nil && d.off != len(d.b) {
			return nil, fmt.Errorf("store: %d trailing bytes after snapshot payload", len(d.b)-d.off)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", d.err)
	}
	return finishSnapshot(s, tables)
}

// finishSnapshot runs post-decode validation and cube attachment.
func finishSnapshot(s *Snapshot, tables []cube.Table) (*Snapshot, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if tables != nil {
		// The snapshot's own invariants hold, so the derived dataset exists;
		// assemble the cube over it and attach (validate-on-open included).
		// The cube keeps the tables as read: on a mapped open they are views
		// over the mapping and, like the columns, die with it.
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		c, err := cube.FromTables(ds, tables)
		if err != nil {
			return nil, fmt.Errorf("store: cube section: %w", err)
		}
		s.attachCube(c)
	}
	return s, nil
}

// dimSchema is a dimension's header entry: its name and dictionary.
type dimSchema struct {
	name string
	dict []string
}

// headerV2 is the parsed v2 header: schema plus the validated byte-offset
// directory. Offsets are absolute file offsets into the payload (the file
// minus its tail CRC).
type headerV2 struct {
	schemaV2
	rows    int
	dimOff  []int
	msOff   []int
	cubeOff int // 0 = no cube section
}

// schemaV2 is what the plain and the partitioned header share: the dataset's
// identity and column schema, dictionaries included.
type schemaV2 struct {
	name         string
	version      uint64
	hierarchies  []data.Hierarchy
	dims         []dimSchema
	measureNames []string
}

// snapshot assembles one snapshot of rows rows from a validated offset
// directory. Without a mapping every column payload is decoded into heap
// slices; with one, Codes and Values are typed views over the mapped file.
func (sc *schemaV2) snapshot(d *decoder, m *mapping, rows int, dimOff, msOff []int) *Snapshot {
	s := &Snapshot{
		Name: sc.name, Version: sc.version, Hierarchies: sc.hierarchies, rows: rows, m: m,
		Dims: make([]Column, len(sc.dims)), Measures: make([]MeasureColumn, len(sc.measureNames)),
	}
	for i, dim := range sc.dims {
		d.off = dimOff[i]
		s.Dims[i] = Column{Name: dim.name, Dict: dim.dict, Codes: elems[uint32](d, rows, m != nil)}
	}
	for i, name := range sc.measureNames {
		d.off = msOff[i]
		s.Measures[i] = MeasureColumn{Name: name, Values: elems[float64](d, rows, m != nil)}
	}
	return s
}

// decodeSchema reads the column schema both headers carry after their leading
// fields: hierarchies, dimensions with their dictionaries, measure names.
func (sc *schemaV2) decodeSchema(d *decoder) {
	for i, nh := 0, d.count(); i < nh && d.err == nil; i++ {
		hr := data.Hierarchy{Name: d.string()}
		for j, na := 0, d.count(); j < na && d.err == nil; j++ {
			hr.Attrs = append(hr.Attrs, d.string())
		}
		sc.hierarchies = append(sc.hierarchies, hr)
	}
	for i, nd := 0, d.count(); i < nd && d.err == nil; i++ {
		ds := dimSchema{name: d.string()}
		ndict := d.count()
		ds.dict = make([]string, 0, min(ndict, 1<<16))
		for j := 0; j < ndict && d.err == nil; j++ {
			ds.dict = append(ds.dict, d.string())
		}
		sc.dims = append(sc.dims, ds)
	}
	for i, nm := 0, d.count(); i < nm && d.err == nil; i++ {
		sc.measureNames = append(sc.measureNames, d.string())
	}
}

// decodeOffsets reads one snapshot's slice of the offset directory.
func (sc *schemaV2) decodeOffsets(d *decoder) (dimOff, msOff []int) {
	dimOff = make([]int, len(sc.dims))
	for i := range dimOff {
		dimOff[i] = d.offset()
	}
	msOff = make([]int, len(sc.measureNames))
	for i := range msOff {
		msOff[i] = d.offset()
	}
	return dimOff, msOff
}

// headerEnd closes a header of the given kind at the decoder's position: it
// reports a decoding error latched so far, verifies the header's own CRC, and
// returns where the first payload must start — the next 8-byte boundary, the
// gap holding zero bytes. The directory is CRC-trusted after it returns.
func (d *decoder) headerEnd(kind string) (int, error) {
	hdrEnd := d.off
	sum := d.bytes(4)
	if d.err != nil {
		return 0, fmt.Errorf("store: decoding %s header: %w", kind, d.err)
	}
	if got, want := crc32.Checksum(d.b[:hdrEnd], castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return 0, fmt.Errorf("store: header checksum mismatch (file %08x, computed %08x)", want, got)
	}
	expected := align8(d.off)
	return expected, checkPadding(d.b, d.off, expected)
}

// checkPayloads verifies that one snapshot's slice of a CRC-trusted directory
// describes the file b: the writer packs payloads contiguously on 8-byte
// boundaries, padding with zero bytes, so each column of rows rows starts at
// the expected offset and ends, padding included, inside the file. It returns
// where the next payload must start; prefix ("shard N ", or none) names the
// snapshot in errors.
func (sc *schemaV2) checkPayloads(b []byte, expected, rows int, dimOff, msOff []int, prefix string) (int, error) {
	check := func(kind, name string, off, width int) error {
		if off != expected {
			return fmt.Errorf("store: %s%s %q payload offset %d, expected %d", prefix, kind, name, off, expected)
		}
		end := off + width*rows
		expected = align8(end)
		if expected > len(b) {
			return fmt.Errorf("store: %s%s %q payload exceeds file (ends %d, payload %d bytes)", prefix, kind, name, expected, len(b))
		}
		return checkPadding(b, end, expected)
	}
	for i, off := range dimOff {
		if err := check("dimension", sc.dims[i].name, off, 4); err != nil {
			return 0, err
		}
	}
	for i, off := range msOff {
		if err := check("measure", sc.measureNames[i], off, 8); err != nil {
			return 0, err
		}
	}
	return expected, nil
}

// parseHeaderV2 parses and fully validates a v2 header from a decoder
// positioned after the version byte: field structure, the header's own CRC,
// and the offset directory (in-bounds, contiguous, 8-aligned, zero padding).
// After it returns, every column payload's location is trusted.
func parseHeaderV2(d *decoder) (*headerV2, error) {
	h := &headerV2{}
	h.name = d.string()
	h.version = d.uvarint()
	rows := d.uvarint()
	if rows > maxSaneCount {
		return nil, fmt.Errorf("store: implausible row count %d", rows)
	}
	h.rows = int(rows)
	h.decodeSchema(d)
	h.dimOff, h.msOff = h.decodeOffsets(d)
	h.cubeOff = d.offset()
	expected, err := d.headerEnd("snapshot")
	if err != nil {
		return nil, err
	}
	if expected, err = h.checkPayloads(d.b, expected, h.rows, h.dimOff, h.msOff, ""); err != nil {
		return nil, err
	}
	switch {
	case h.cubeOff == 0:
		if expected != len(d.b) {
			return nil, fmt.Errorf("store: %d trailing bytes after snapshot payload", len(d.b)-expected)
		}
	case h.cubeOff != expected:
		return nil, fmt.Errorf("store: cube section offset %d, expected %d", h.cubeOff, expected)
	}
	return h, nil
}

// checkPadding verifies the alignment gap [from, to) holds only zero bytes.
func checkPadding(b []byte, from, to int) error {
	if to > len(b) {
		return fmt.Errorf("store: snapshot truncated inside alignment padding (need %d bytes, have %d)", to, len(b))
	}
	for i := from; i < to; i++ {
		if b[i] != 0 {
			return fmt.Errorf("store: nonzero alignment padding at offset %d", i)
		}
	}
	return nil
}

// cubeSection parses the optional trailing cube section into one cell table
// per lattice level of hiers, with measures sums and sums of squares per
// cell: views over the payload bytes when mapped (see elems). It checks what
// the cube cannot — the zero padding, and every level's arrays against the
// section's end — and leaves the tables' contents to cube.FromTables. A
// version-1 (varint) section yields no tables: the file opens without its
// cube, and serving builds one or scans.
func (d *decoder) cubeSection(hiers []data.Hierarchy, measures int, mapped bool) []cube.Table {
	var tag [4]byte
	copy(tag[:], d.bytes(len(tag)))
	if d.err == nil && tag != cubeTag {
		d.fail("unknown trailing section %q", tag[:])
		return nil
	}
	switch v := d.byte(); {
	case d.err != nil:
		return nil
	case v == 1:
		d.off = len(d.b) // the tail CRC covered it; there is nothing to decode it with
		return nil
	case v != CubeFormatVersion:
		d.fail("unsupported cube section version %d (want %d)", v, CubeFormatVersion)
		return nil
	}
	if d.err = checkPadding(d.b, d.off, align8(d.off)); d.err != nil {
		return nil
	}
	d.off = align8(d.off)
	// The level directory holds a cell count per lattice level: one level
	// per depth vector, Π (depth + 1) over the hierarchies.
	levels := 1
	for _, hr := range hiers {
		if levels > (len(d.b)-d.off)/8/(len(hr.Attrs)+1) {
			d.fail("cube level directory overruns the section")
			return nil
		}
		levels *= len(hr.Attrs) + 1
	}
	cells := elems[uint64](d, levels, false)
	width := 8 * (2 + 2*measures) // a cell's key, count, and sum and sum of squares per measure
	tables := make([]cube.Table, len(cells))
	for li, n := range cells {
		if n > uint64((len(d.b)-d.off)/width) {
			d.fail("cube level %d: %d cells overrun the section", li, n)
			return nil
		}
		t := &tables[li]
		t.Keys = elems[uint64](d, int(n), mapped)
		t.Counts = elems[float64](d, int(n), mapped)
		t.Sums, t.SumSqs = make([][]float64, measures), make([][]float64, measures)
		for mi := range t.Sums {
			t.Sums[mi] = elems[float64](d, int(n), mapped)
			t.SumSqs[mi] = elems[float64](d, int(n), mapped)
		}
	}
	return tables
}

// encoder writes the primitive field types, latching the first error.
type encoder struct {
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.bytes(e.scratch[:n])
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *encoder) codes(cs []uint32) {
	var buf [4]byte
	for _, c := range cs {
		binary.LittleEndian.PutUint32(buf[:], c)
		e.bytes(buf[:])
	}
}

func (e *encoder) words(vs []uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		e.bytes(buf[:])
	}
}

func (e *encoder) floats(vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		e.bytes(buf[:])
	}
}

// pad writes n zero bytes (n < 8), aligning the next payload.
func (e *encoder) pad(n int) {
	var z [8]byte
	e.bytes(z[:n])
}

// decoder reads the primitive field types from an in-memory payload,
// latching the first error.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.fail("truncated: need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// offset decodes one u64 directory entry, bounding it to the payload size.
func (d *decoder) offset() int {
	raw := d.bytes(8)
	if raw == nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(raw)
	if v > uint64(len(d.b)) {
		d.fail("directory offset %d beyond payload (%d bytes)", v, len(d.b))
		return 0
	}
	return int(v)
}

// count decodes an element count, bounding it to sane sizes.
func (d *decoder) count() int {
	v := d.uvarint()
	if v > maxSaneCount {
		d.fail("implausible element count %d", v)
		return 0
	}
	return int(v)
}

func (d *decoder) string() string {
	n := d.count()
	return string(d.bytes(n))
}

// elems reads n fixed-width little-endian elements at the decoder's offset —
// a column payload or a cube cell table: as a view over the payload bytes
// when they belong to a file mapping (and view can serve them), decoded onto
// the heap otherwise.
func elems[T uint32 | uint64 | float64](d *decoder, n int, mapped bool) []T {
	raw := d.bytes(binary.Size(*new(T)) * n)
	if raw == nil {
		return nil
	}
	if mapped {
		if out, ok := view[T](raw); ok {
			return out
		}
	}
	out := make([]T, n)
	switch o := any(out).(type) {
	case []uint32:
		for i := range o {
			o[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
	case []uint64:
		for i := range o {
			o[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	case []float64:
		for i := range o {
			o[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return out
}
