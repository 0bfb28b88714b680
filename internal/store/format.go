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

// The .rst binary layout is documented in doc.go. A self-describing header —
// schema, dictionaries, and a CRC-checked byte-offset directory — precedes
// fixed-width, 8-byte-aligned column payloads and cube sections, so every
// open serves columns and cell tables as views over the bytes it read or
// mapped, without decoding them a second time.
var magic = [7]byte{'R', 'S', 'T', 'S', 'N', 'A', 'P'}

// shardMagic introduces a version-2 partitioned file, which is still read.
var shardMagic = [8]byte{'R', 'S', 'T', 'S', 'H', 'A', 'R', 'D'}

// FormatVersion is the current .rst format version.
const FormatVersion = 3

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

// Write serializes the snapshot as the one-shard .rst file, checksum
// included. Mapped snapshots stream straight out of their mapping, so Save
// works without materializing columns on the heap.
func (s *Snapshot) Write(w io.Writer) error {
	return WriteSharded(w, "", []*Snapshot{s})
}

// WriteSharded serializes the shards of one dataset version as one .rst file,
// checksum included: per shard its columns, and its cube if it has one. Every
// shard must carry the same name, version, hierarchies, column schema and —
// payloads and cube keys hold codes only — identical dictionaries, each cube
// keyed to them. key names the hierarchy-root dimension the rows were
// partitioned on; one shard may have none.
func WriteSharded(w io.Writer, key string, shards []*Snapshot) error {
	if err := checkShardSet(key, shards); err != nil {
		return err
	}
	return writeLayout(w, key, shards)
}

// checkShardSet verifies the writer's preconditions: a non-empty shard list
// sharing one schema and one set of dictionary contents, and its key.
func checkShardSet(key string, shards []*Snapshot) error {
	if len(shards) == 0 {
		return fmt.Errorf("store: snapshot needs at least one shard")
	}
	first := shards[0]
	if err := CheckShardKey(key, first.Hierarchies, len(shards)); err != nil {
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
			if !data.SameDict(c.Dict, fc.Dict) {
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

// checkShardKey verifies the partition key of a file of n shards: one shard
// may have none, and a key is the root attribute of one of the hierarchies —
// the invariant the byte-identity guarantee rests on.
func CheckShardKey(key string, hierarchies []data.Hierarchy, n int) error {
	if key == "" {
		if n == 1 {
			return nil
		}
		return fmt.Errorf("store: partitioned snapshot needs a partition key")
	}
	for _, h := range hierarchies {
		if len(h.Attrs) > 0 && h.Attrs[0] == key {
			return nil
		}
	}
	return fmt.Errorf("store: partition key %q is not the root attribute of any hierarchy", key)
}

// OpenShardsFile loads a .rst file as its partition key and shard list,
// reading (or, with mapped set, memory-mapping) the file once. The shards
// share one set of dictionary slices, in shard order, and carry their cubes;
// a file of one unkeyed shard yields no key. Every open verifies the file and
// header checksums, each shard's structural invariants, every hierarchy
// functional dependency across all the shards' rows, and each cube against
// its shard. Mapped shards and their cubes are typed views over one file
// mapping, released when the last shard is Closed.
func OpenShardsFile(path string, mapped bool) (key string, shards []*Snapshot, err error) {
	return openPath(path, mapped)
}

// writeLayout is the one .rst writer (layout in doc.go): a staged header —
// identity, key, schema, per-shard row counts — then the shard-major offset
// directory sealed by the header CRC, then per shard its aligned column
// payloads and its cube section, if it has a cube, and the tail CRC. The
// shards share the schema and dictionaries of shards[0] (WriteSharded
// checks).
func writeLayout(w io.Writer, key string, shards []*Snapshot) error {
	first := shards[0]
	// Stage the header in memory: the byte-offset directory holds absolute
	// payload offsets, so the header's size must be known before the first
	// payload byte is placed. The header is small — schema plus
	// dictionaries — while payloads, the part proportional to row count,
	// stream straight to w.
	var hb bytes.Buffer
	hw := bufio.NewWriterSize(&hb, 1<<12)
	e := &encoder{w: hw}
	e.bytes(magic[:])
	e.byte(FormatVersion)
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
		return fmt.Errorf("store: writing snapshot: %w", e.err)
	}

	// Directory: per shard, one u64 offset per dimension, then per measure,
	// then its cube section's (0 = no cube). Then the header CRC.
	nOff := len(shards) * (len(first.Dims) + len(first.Measures) + 1)
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
		cubeOff := uint64(0)
		if s.cube != nil {
			cubeOff = uint64(off)
			off += cubeSectionLen(s.cube.Tables(), len(s.Measures))
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
		if s.cube != nil {
			we.cubeSection(s.cube.Tables())
		}
	}
	if we.err == nil {
		we.err = bw.Flush()
	}
	if we.err != nil {
		return fmt.Errorf("store: writing snapshot: %w", we.err)
	}
	// The checksum covers everything flushed so far and is written to the
	// destination only (hashing it too would make verification impossible).
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("store: writing snapshot checksum: %w", err)
	}
	return nil
}

// cubeSectionLen is the byte length of the cube section holding tables:
// tag, version and padding, the level directory, and per level each cell's
// key, count, and sum and sum of squares per measure.
func cubeSectionLen(tables []cube.Table, measures int) int {
	n := 8 + 8*len(tables)
	for _, t := range tables {
		n += 8 * (2 + 2*measures) * len(t.Keys)
	}
	return n
}

// cubeSection writes a cube section holding tables (layout in doc.go).
func (e *encoder) cubeSection(tables []cube.Table) {
	cells := make([]uint64, len(tables))
	for li, t := range tables {
		cells[li] = uint64(len(t.Keys))
	}
	e.bytes(cubeTag[:])
	e.byte(CubeFormatVersion)
	e.pad(3) // to the next 8-byte boundary
	e.words(cells)
	for _, t := range tables {
		e.words(t.Keys)
		e.floats(t.Counts)
		for mi := range t.Sums {
			e.floats(t.Sums[mi])
			e.floats(t.SumSqs[mi])
		}
	}
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
	return single(openShards(b, nil))
}

// OpenFile loads a .rst snapshot from disk.
func OpenFile(path string) (*Snapshot, error) {
	return single(openPath(path, false))
}

// single unwraps the snapshot of a one-shard file. A file of more shards is
// refused, and its shards released: the single-snapshot opens serve no
// partition.
func single(_ string, shards []*Snapshot, err error) (*Snapshot, error) {
	if err != nil {
		return nil, err
	}
	if len(shards) > 1 {
		for _, s := range shards {
			s.Close()
		}
		return nil, fmt.Errorf("store: file is a partitioned snapshot of %d shards; open it with OpenShardsFile", len(shards))
	}
	return shards[0], nil
}

// errFormatV1 answers every open of a version-1 file, plain or partitioned.
var errFormatV1 = errors.New("store: format version 1 is no longer readable; re-run `reptile convert` from the source CSV")

// openPath opens the .rst file at path — eagerly from one heap read, which
// the shards then own, or mapped — and adds the path to any decode error.
func openPath(path string, mapped bool) (key string, shards []*Snapshot, err error) {
	if mapped {
		f, ferr := os.Open(path)
		if ferr != nil {
			return "", nil, ferr
		}
		defer f.Close()
		key, shards, err = openMapped(f)
	} else {
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return "", nil, rerr
		}
		key, shards, err = openShards(b, nil)
	}
	if err != nil {
		return "", nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return key, shards, nil
}

// layout is what a file's magic and version byte say about its header.
type layout struct {
	// rowsFirst marks a version-2 plain file: one shard with no key, its row
	// count written before the schema.
	rowsFirst bool
	// cubeOffs marks a directory whose shard slots close with a cube section
	// offset; version-2 partitioned files have none.
	cubeOffs bool
}

// openShards decodes a .rst file from b into its shards and partition key
// ("" for a file of one unkeyed shard). Their columns and cube cell tables
// are views over b (see elems), so they take b over: m's mapped bytes, or an
// eager read the caller must not reuse. The shards are validated — each
// one's columns in shard order, then every hierarchy functional dependency
// across all of them in one pass, then each one's cube.
func openShards(b []byte, m *mapping) (string, []*Snapshot, error) {
	d, lay, err := openEnvelope(b)
	if err != nil {
		return "", nil, err
	}
	h, next, err := parseHeader(d, lay)
	if err != nil {
		return "", nil, err
	}
	shards := make([]*Snapshot, len(h.shards))
	tables := make([][]cube.Table, len(h.shards))
	for si, sl := range h.shards {
		if next, err = h.checkPayloads(d.b, next, si, sl); err != nil {
			return "", nil, err
		}
		shards[si] = h.snapshot(d, m, sl)
		if sl.cubeOff != 0 {
			if sl.cubeOff != next {
				return "", nil, fmt.Errorf("store: shard %d cube section offset %d, expected %d", si, sl.cubeOff, next)
			}
			d.off = next
			tables[si] = d.cubeSection(h.hierarchies, len(h.measureNames))
			next = d.off
		}
		if d.err != nil {
			return "", nil, fmt.Errorf("store: decoding snapshot: %w", d.err)
		}
	}
	if next != len(d.b) {
		return "", nil, fmt.Errorf("store: %d trailing bytes after snapshot payload", len(d.b)-next)
	}
	for si, s := range shards {
		if err := s.checkColumns(); err != nil {
			return "", nil, fmt.Errorf("store: shard %d: %w", si, err)
		}
	}
	if err := validateShards(shards); err != nil {
		return "", nil, err
	}
	for si, s := range shards {
		if err := attachTables(s, tables[si]); err != nil {
			return "", nil, fmt.Errorf("store: shard %d: %w", si, err)
		}
	}
	return h.key, shards, nil
}

// openEnvelope verifies what every layout shares — minimum length,
// whole-file tail CRC, magic, format version — and returns a decoder
// positioned after the version byte plus the layout the two announce.
func openEnvelope(b []byte) (*decoder, layout, error) {
	if len(b) < len(magic)+1+4 {
		return nil, layout{}, fmt.Errorf("store: snapshot truncated (%d bytes)", len(b))
	}
	payload, tail := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, layout{}, fmt.Errorf("store: snapshot checksum mismatch (file %08x, computed %08x)", want, got)
	}
	d := &decoder{b: payload}
	sharded := bytes.HasPrefix(payload, shardMagic[:])
	switch {
	case sharded:
		d.off = len(shardMagic)
	case bytes.HasPrefix(payload, magic[:]):
		d.off = len(magic)
	default:
		return nil, layout{}, fmt.Errorf("store: bad magic %q: not a .rst snapshot", payload[:len(magic)])
	}
	switch v := d.byte(); {
	case d.err != nil:
		return nil, layout{}, fmt.Errorf("store: decoding snapshot: %w", d.err)
	case v == 1:
		return nil, layout{}, errFormatV1
	case v == 2 && sharded:
		return d, layout{}, nil
	case v == 2:
		return d, layout{rowsFirst: true, cubeOffs: true}, nil
	case v == FormatVersion && !sharded:
		return d, layout{cubeOffs: true}, nil
	default:
		return nil, layout{}, fmt.Errorf("store: unsupported format version %d (want %d)", v, FormatVersion)
	}
}

// attachTables assembles a validated snapshot's cube from its decoded cell
// tables, if it has any, and attaches it (validate-on-open included). The
// cube keeps the tables as read: on a mapped open they are views over the
// mapping and, like the columns, die with it.
func attachTables(s *Snapshot, tables []cube.Table) error {
	if tables == nil {
		return nil
	}
	c, err := cube.FromTables(s.ds, tables)
	if err != nil {
		return fmt.Errorf("store: cube section: %w", err)
	}
	s.attachCube(c)
	return nil
}

// dimSchema is a dimension's header entry: its name and dictionary.
type dimSchema struct {
	name string
	dict []string
}

// header is a parsed header: the dataset's identity, partition key and
// column schema, dictionaries included, which every shard shares, and each
// shard's slot of the CRC-trusted byte-offset directory. Offsets are
// absolute file offsets into the payload (the file minus its tail CRC).
type header struct {
	name         string
	version      uint64
	key          string
	hierarchies  []data.Hierarchy
	dims         []dimSchema
	measureNames []string
	shards       []shardSlot
}

// shardSlot is one shard's row count and directory slot.
type shardSlot struct {
	rows    int
	dimOff  []int
	msOff   []int
	cubeOff int // 0 = no cube section
}

// parseHeader parses a header from a decoder positioned after the version
// byte — field structure, the partition key, the header's own CRC — and
// returns it with the offset where the first payload must start. The
// directory is CRC-trusted after it returns; openShards checks it against
// the payloads shard by shard.
func parseHeader(d *decoder, lay layout) (*header, int, error) {
	h := &header{name: d.string(), version: d.uvarint()}
	if lay.rowsFirst {
		h.shards = []shardSlot{{rows: d.count()}}
	} else {
		h.key = d.string()
	}
	h.decodeSchema(d)
	if !lay.rowsFirst {
		n := d.count()
		if d.err == nil && n == 0 {
			return nil, 0, fmt.Errorf("store: snapshot has no shards")
		}
		for si := 0; si < n && d.err == nil; si++ {
			h.shards = append(h.shards, shardSlot{rows: d.count()})
		}
	}
	for si := range h.shards {
		sl := &h.shards[si]
		sl.dimOff, sl.msOff = make([]int, len(h.dims)), make([]int, len(h.measureNames))
		for i := range sl.dimOff {
			sl.dimOff[i] = d.offset()
		}
		for i := range sl.msOff {
			sl.msOff[i] = d.offset()
		}
		if lay.cubeOffs {
			sl.cubeOff = d.offset()
		}
	}
	hdrEnd := d.off
	sum := d.bytes(4)
	if d.err != nil {
		return nil, 0, fmt.Errorf("store: decoding snapshot header: %w", d.err)
	}
	if got, want := crc32.Checksum(d.b[:hdrEnd], castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return nil, 0, fmt.Errorf("store: header checksum mismatch (file %08x, computed %08x)", want, got)
	}
	if err := CheckShardKey(h.key, h.hierarchies, len(h.shards)); err != nil {
		return nil, 0, err
	}
	next := align8(d.off)
	return h, next, checkPadding(d.b, d.off, next)
}

// decodeSchema reads the column schema: hierarchies, dimensions with their
// dictionaries, measure names.
func (h *header) decodeSchema(d *decoder) {
	for i, nh := 0, d.count(); i < nh && d.err == nil; i++ {
		hr := data.Hierarchy{Name: d.string()}
		for j, na := 0, d.count(); j < na && d.err == nil; j++ {
			hr.Attrs = append(hr.Attrs, d.string())
		}
		h.hierarchies = append(h.hierarchies, hr)
	}
	for i, nd := 0, d.count(); i < nd && d.err == nil; i++ {
		ds := dimSchema{name: d.string()}
		ndict := d.count()
		ds.dict = make([]string, 0, min(ndict, 1<<16))
		for j := 0; j < ndict && d.err == nil; j++ {
			ds.dict = append(ds.dict, d.string())
		}
		h.dims = append(h.dims, ds)
	}
	for i, nm := 0, d.count(); i < nm && d.err == nil; i++ {
		h.measureNames = append(h.measureNames, d.string())
	}
}

// snapshot assembles shard sl's snapshot from its checked directory slot,
// its Codes and Values views over d's bytes (see elems); m is their mapping.
func (h *header) snapshot(d *decoder, m *mapping, sl shardSlot) *Snapshot {
	s := &Snapshot{
		Name: h.name, Version: h.version, Hierarchies: h.hierarchies, rows: sl.rows, m: m,
		Dims: make([]Column, len(h.dims)), Measures: make([]MeasureColumn, len(h.measureNames)),
	}
	for i, dim := range h.dims {
		d.off = sl.dimOff[i]
		s.Dims[i] = Column{Name: dim.name, Dict: dim.dict, Codes: elems[uint32](d, sl.rows)}
	}
	for i, name := range h.measureNames {
		d.off = sl.msOff[i]
		s.Measures[i] = MeasureColumn{Name: name, Values: elems[float64](d, sl.rows)}
	}
	return s
}

// checkPayloads verifies that shard si's directory slot describes the file
// b: the writer packs payloads contiguously on 8-byte boundaries, padding
// with zero bytes, so each column starts at the expected offset and ends,
// padding included, inside the file. It returns where the next section must
// start.
func (h *header) checkPayloads(b []byte, expected, si int, sl shardSlot) (int, error) {
	check := func(kind, name string, off, width int) error {
		if off != expected {
			return fmt.Errorf("store: shard %d %s %q payload offset %d, expected %d", si, kind, name, off, expected)
		}
		end := off + width*sl.rows
		expected = align8(end)
		if expected > len(b) {
			return fmt.Errorf("store: shard %d %s %q payload exceeds file (ends %d, payload %d bytes)", si, kind, name, expected, len(b))
		}
		return checkPadding(b, end, expected)
	}
	for i, off := range sl.dimOff {
		if err := check("dimension", h.dims[i].name, off, 4); err != nil {
			return 0, err
		}
	}
	for i, off := range sl.msOff {
		if err := check("measure", h.measureNames[i], off, 8); err != nil {
			return 0, err
		}
	}
	return expected, nil
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

// cubeSection parses a shard's cube section into one cell table per lattice
// level of hiers, with measures sums and sums of squares per cell: views
// over the payload bytes (see elems). It checks what the cube
// cannot — the zero padding, and every level's arrays against the file's
// end — and leaves the tables' contents to cube.FromTables. A version-1
// (varint) section, which runs to the end of the file, yields no tables: the
// file opens without its cube, and serving builds one or scans.
func (d *decoder) cubeSection(hiers []data.Hierarchy, measures int) []cube.Table {
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
	cells := elems[uint64](d, levels)
	width := 8 * (2 + 2*measures) // a cell's key, count, and sum and sum of squares per measure
	tables := make([]cube.Table, len(cells))
	for li, n := range cells {
		if n > uint64((len(d.b)-d.off)/width) {
			d.fail("cube level %d: %d cells overrun the section", li, n)
			return nil
		}
		t := &tables[li]
		t.Keys = elems[uint64](d, int(n))
		t.Counts = elems[float64](d, int(n))
		t.Sums, t.SumSqs = make([][]float64, measures), make([][]float64, measures)
		for mi := range t.Sums {
			t.Sums[mi] = elems[float64](d, int(n))
			t.SumSqs[mi] = elems[float64](d, int(n))
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
// a column payload or a cube cell table — as a view over the decoder's bytes,
// read or mapped, decoding them onto the heap only where view cannot serve.
func elems[T uint32 | uint64 | float64](d *decoder, n int) []T {
	raw := d.bytes(binary.Size(*new(T)) * n)
	if raw == nil {
		return nil
	}
	if out, ok := view[T](raw); ok {
		return out
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
