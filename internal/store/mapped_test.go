package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
)

// demoDataset7 extends the demo dataset to 7 rows so the 4-byte code
// payloads need alignment padding (4·7 = 28 → padded to 32), reaching the
// zero-padding checks a 6-row fixture never exercises.
func demoDataset7() *data.Dataset {
	ds := demoDataset()
	ds.AppendRowVals([]string{"Raya", "Kukufto", "1987"}, []float64{5})
	return ds
}

// writeSnapshotFile persists a snapshot to a fresh temp file.
func writeSnapshotFile(t *testing.T, snap *Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.rst")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMappedRoundTrip(t *testing.T) {
	want := demoDataset7()
	snap := FromDataset(want)
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotFile(t, snap)
	got, err := OpenMappedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mapped() {
		t.Fatal("snapshot did not open mapped")
	}
	if got.ResidentColumnBytes() != 0 {
		t.Errorf("mapped resident column bytes = %d, want 0", got.ResidentColumnBytes())
	}
	if rb := snap.ResidentColumnBytes(); rb != int64(snap.NumRows())*(4*3+8) {
		t.Errorf("eager resident column bytes = %d, want %d", rb, snap.NumRows()*(4*3+8))
	}
	if got.Cube() == nil {
		t.Fatal("cube lost through the mapped open")
	}
	// Mapped columns are views over the file: the same codes and values the
	// eager snapshot holds, in slices whose capacity ends with the payload.
	for i, c := range got.Dims {
		if !reflect.DeepEqual(c.Codes, snap.Dims[i].Codes) || cap(c.Codes) != len(c.Codes) {
			t.Errorf("dimension %q: codes %v (cap %d), want %v", c.Name, c.Codes, cap(c.Codes), snap.Dims[i].Codes)
		}
	}
	for i, m := range got.Measures {
		if !reflect.DeepEqual(m.Values, snap.Measures[i].Values) || cap(m.Values) != len(m.Values) {
			t.Errorf("measure %q: values %v (cap %d), want %v", m.Name, m.Values, cap(m.Values), snap.Measures[i].Values)
		}
	}
	back, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, back, want)
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// v1Envelope hand-builds the smallest well-formed version-1 file: the given
// magic, version byte 1, a short body, and a valid tail CRC — everything the
// envelope check inspects before the version dispatch. No writer has emitted
// v1 since the offset-directory format landed.
func v1Envelope(magic []byte) []byte {
	b := append(append([]byte{}, magic...), 1)
	b = append(b, "legacy body"...)
	b = append(b, 0, 0, 0, 0)
	reseal(b)
	return b
}

// TestFormatV1Rejected pins the one dedicated error a version-1 file gets on
// all four open paths (plain/partitioned × eager/mapped): v1 is no longer
// readable, and the message says how to upgrade.
func TestFormatV1Rejected(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, magic []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, v1Envelope(magic), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain, sharded := write("v1.rst", magic[:]), write("v1-sharded.rst", shardMagic[:])
	cases := []struct {
		name string
		open func() error
	}{
		{"plain eager", func() error { _, err := OpenFile(plain); return err }},
		{"plain mapped", func() error { _, err := OpenMappedFile(plain); return err }},
		{"partitioned eager", func() error { _, _, err := OpenShardsFile(sharded, false); return err }},
		{"partitioned mapped", func() error { _, _, err := OpenShardsFile(sharded, true); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.open()
			if !errors.Is(err, errFormatV1) || !strings.Contains(err.Error(), "reptile convert") {
				t.Fatalf("err = %v, want the format-version-1 rejection", err)
			}
		})
	}
}

// TestOpenMappedRejectsTruncationEverywhere is the mapped twin of the eager
// sweep: every byte-level truncation of every plain layout must fail cleanly
// through the mmap path too (and must not leak the mapping — the -race/leak
// canary is that no cut ever opens).
func TestOpenMappedRejectsTruncationEverywhere(t *testing.T) {
	for _, lc := range layoutCases(t, 1) {
		rejectMappedTruncations(t, lc)
	}
}

// rejectMappedTruncations asserts that every byte-level cut of lc, written
// to a file, fails to open mapped.
func rejectMappedTruncations(t *testing.T, lc layoutCase) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cut.rst")
	for cut := 0; cut < len(lc.file); cut++ {
		if err := os.WriteFile(path, lc.file[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ss, err := OpenShardsFile(path, true); err == nil {
			for _, s := range ss {
				s.Close()
			}
			t.Fatalf("%s: truncation at offset %d/%d mapped successfully", lc.name, cut, len(lc.file))
		}
	}
}

// TestMappedViewCannotFault opens a snapshot "mapped" over heap buffers that
// break what the view helper relies on — every misalignment of the base
// address, and every truncation at every misalignment — and asserts the open
// either errors or decodes the affected columns and cube cell tables eagerly
// into the same dataset and cube; it never panics and never serves a
// misaligned view.
func TestMappedViewCannotFault(t *testing.T) {
	good := cubeSnapshotBytes(t)
	eager, err := Open(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eager.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	backing := make([]byte, len(good)+8)
	for shift := 0; shift < 8; shift++ {
		b := backing[shift : shift+len(good)]
		copy(b, good)
		_, shards, err := openShards(b, &mapping{data: b})
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		s := shards[0]
		if !s.Mapped() || s.ResidentColumnBytes() != 0 {
			t.Errorf("shift %d: Mapped %v, resident %d", shift, s.Mapped(), s.ResidentColumnBytes())
		}
		got, err := s.Dataset()
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		assertDatasetsEqual(t, got, want)
		if !reflect.DeepEqual(s.Cube().Tables(), eager.Cube().Tables()) {
			t.Errorf("shift %d: cube cell tables differ from the eager open's", shift)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, _, err := openShards(b[:cut], &mapping{data: b[:cut]}); err == nil {
				t.Fatalf("shift %d: truncation at %d/%d opened", shift, cut, len(good))
			}
		}
	}
	// The helper itself: ragged lengths and misaligned addresses are refused,
	// an empty payload is an empty column.
	raw := make([]byte, 32) // the allocator places this on an 8-byte boundary
	if v, ok := view[float64](raw[:16]); ok != hostLittleEndian || len(v) != cap(v) {
		t.Errorf("aligned view = %v, %v", v, ok)
	}
	if _, ok := view[float64](raw[4:20]); ok {
		t.Error("view served float64s from a 4-byte-aligned address")
	}
	if _, ok := view[uint64](raw[4:20]); ok {
		t.Error("view served uint64s from a 4-byte-aligned address")
	}
	if _, ok := view[uint32](raw[1:9]); ok {
		t.Error("view served uint32s from an odd address")
	}
	if _, ok := view[uint32](raw[:7]); ok {
		t.Error("view served a ragged payload")
	}
	if v, ok := view[uint32](raw[:0]); ok != hostLittleEndian || len(v) != 0 {
		t.Errorf("empty view = %v, %v", v, ok)
	}
}

// headerCRCAt locates the header checksum by scanning for the offset whose
// stored word matches the CRC of everything before it (the header length is
// not recorded explicitly). payload excludes the tail CRC.
func headerCRCAt(t *testing.T, payload []byte) int {
	t.Helper()
	for end := len(magic) + 1; end+4 <= len(payload); end++ {
		if crcOf(payload[:end]) == binary.LittleEndian.Uint32(payload[end:]) {
			return end
		}
	}
	t.Fatal("header checksum not found")
	return 0
}

// resealHeader recomputes the header checksum after a deliberate edit.
func resealHeader(b []byte, hdrEnd int) {
	binary.LittleEndian.PutUint32(b[hdrEnd:], crcOf(b[:hdrEnd]))
}

// dirEntry returns where, in a file written from shards whose header
// checksum sits at hdrEnd, shard si's directory entry j sits: j counts its
// dimension offsets, then its measure offsets, then its cube offset.
func dirEntry(hdrEnd int, shards []*Snapshot, si, j int) int {
	slot := len(shards[0].Dims) + len(shards[0].Measures) + 1
	return hdrEnd - 8*slot*(len(shards)-si) + 8*j
}

// TestOpenRejectsDirectoryTampering damages the offset directory and its
// surroundings in every plain layout with every checksum re-sealed, so the
// structural validation — offset consistency, cube-offset consistency, zero
// padding — is what rejects the file, identically through the eager and
// mapped paths.
func TestOpenRejectsDirectoryTampering(t *testing.T) {
	tamperDirectory(t, layoutCases(t, 1))
}

// TestOpenShardedRejectsDirectoryTampering runs the same damage over the
// 2-shard layouts, where the shard-major directory's contiguity across the
// shards is checked too.
func TestOpenShardedRejectsDirectoryTampering(t *testing.T) {
	tamperDirectory(t, layoutCases(t, 2))
}

// tamperDirectory applies each directory damage to each of layouts as a
// subtest named after the damage, then the layout.
func tamperDirectory(t *testing.T, layouts []layoutCase) {
	u64 := func(b []byte, off int) int { return int(binary.LittleEndian.Uint64(b[off:])) }
	// shift moves shard si's first dimension offset by 8 bytes.
	shift := func(b []byte, hdrEnd int, shards []*Snapshot, si int) {
		e := dirEntry(hdrEnd, shards, si, 0)
		binary.LittleEndian.PutUint64(b[e:], uint64(u64(b, e)+8))
		resealHeader(b, hdrEnd)
	}
	cases := []struct {
		name   string
		mutate func(b []byte, hdrEnd int, shards []*Snapshot)
		want   string
	}{
		{"shifted dimension offset", func(b []byte, hdrEnd int, shards []*Snapshot) {
			shift(b, hdrEnd, shards, 0)
		}, "payload offset"},
		{"shifted shard offset", func(b []byte, hdrEnd int, shards []*Snapshot) {
			shift(b, hdrEnd, shards, len(shards)-1)
		}, "payload offset"},
		{"bogus cube offset", func(b []byte, hdrEnd int, shards []*Snapshot) {
			binary.LittleEndian.PutUint64(b[dirEntry(hdrEnd, shards, 0, len(shards[0].Dims)+len(shards[0].Measures)):], 16)
			resealHeader(b, hdrEnd)
		}, "cube section offset"},
		{"header bit flip", func(b []byte, hdrEnd int, shards []*Snapshot) {
			b[len(magic)+2] ^= 0x20
		}, "header checksum mismatch"},
		{"nonzero payload padding", func(b []byte, hdrEnd int, shards []*Snapshot) {
			// The last shard holds an odd row count (7 of 7, or 3 of 7):
			// its first code payload ends 4 bytes short of the 8-byte
			// boundary.
			last := len(shards) - 1
			b[u64(b, dirEntry(hdrEnd, shards, last, 0))+4*shards[last].NumRows()] = 0xFF
		}, "nonzero alignment padding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lc := range layouts {
				t.Run(lc.name, func(t *testing.T) {
					b := append([]byte(nil), lc.file...)
					tc.mutate(b, headerCRCAt(t, b[:len(b)-4]), lc.shards)
					reseal(b)
					openDamaged(t, b, tc.want)
				})
			}
		})
	}
}

// TestOpenErrorsIncludePath asserts every file-opening variant wraps decode
// failures with the offending path, so multi-dataset logs identify the bad
// file.
func TestOpenErrorsIncludePath(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := FromDataset(demoDataset()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	single := buf.Bytes()
	buf.Reset()
	if err := WriteSharded(&buf, "district", splitShards(t, demoDataset7(), 2)); err != nil {
		t.Fatal(err)
	}
	sharded := buf.Bytes()

	corrupt := func(name string, b []byte) string {
		bad := append([]byte(nil), b...)
		bad[len(bad)/2] ^= 0x40
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	singlePath := corrupt("single.rst", single)
	shardedPath := corrupt("sharded.rst", sharded)

	if _, err := OpenFile(singlePath); err == nil || !strings.Contains(err.Error(), singlePath) {
		t.Errorf("OpenFile err = %v, want it to name %s", err, singlePath)
	}
	if _, err := OpenMappedFile(singlePath); err == nil || !strings.Contains(err.Error(), singlePath) {
		t.Errorf("OpenMappedFile err = %v, want it to name %s", err, singlePath)
	}
	if _, _, err := OpenShardsFile(shardedPath, false); err == nil || !strings.Contains(err.Error(), shardedPath) {
		t.Errorf("eager OpenShardsFile err = %v, want it to name %s", err, shardedPath)
	}
	if _, _, err := OpenShardsFile(shardedPath, true); err == nil || !strings.Contains(err.Error(), shardedPath) {
		t.Errorf("mapped OpenShardsFile err = %v, want it to name %s", err, shardedPath)
	}
}

func TestBuilderAppendRejectsMappedSnapshot(t *testing.T) {
	path := writeSnapshotFile(t, FromDataset(demoDataset()))
	snap, err := OpenMappedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	b := NewBuilder(snap)
	_, err = b.Append([]Row{{Dims: []string{"Ofla", "Zata", "1986"}, Measures: []float64{1}}})
	if err == nil || !strings.Contains(err.Error(), "re-open it eagerly") {
		t.Fatalf("append to mapped snapshot: err = %v, want re-open hint", err)
	}
}

// splitShards splits a dataset's rows round-robin into n shards sharing one
// dictionary set — a store-level stand-in for internal/shard output (the
// format validates key rootness and per-shard invariants, not routing, which
// is an engine concern).
func splitShards(t testing.TB, ds *data.Dataset, n int) []*Snapshot {
	t.Helper()
	parts := make([][]int, n)
	for r := 0; r < ds.NumRows(); r++ {
		parts[r%n] = append(parts[r%n], r)
	}
	return shardsOf(t, ds, parts...)
}

// shardsOf builds one shard per part, holding the dataset's rows the part
// lists in that order, every shard sharing the dataset's dictionaries.
func shardsOf(t testing.TB, ds *data.Dataset, parts ...[]int) []*Snapshot {
	t.Helper()
	src := FromDataset(ds)
	shards := make([]*Snapshot, len(parts))
	for si, rows := range parts {
		dims := make([]Column, len(src.Dims))
		for ci, c := range src.Dims {
			codes := make([]uint32, len(rows))
			for i, r := range rows {
				codes[i] = c.Codes[r]
			}
			dims[ci] = Column{Name: c.Name, Dict: c.Dict, Codes: codes}
		}
		ms := make([]MeasureColumn, len(src.Measures))
		for mi, m := range src.Measures {
			vals := make([]float64, len(rows))
			for i, r := range rows {
				vals[i] = m.Values[r]
			}
			ms[mi] = MeasureColumn{Name: m.Name, Values: vals}
		}
		sn, err := NewSnapshot(src.Name, src.Version, src.Hierarchies, dims, ms, len(rows))
		if err != nil {
			t.Fatal(err)
		}
		shards[si] = sn
	}
	return shards
}

func TestOpenShardedMappedRoundTrip(t *testing.T) {
	want := demoDataset7()
	shards := splitShards(t, want, 3)
	path := filepath.Join(t.TempDir(), "sharded.rst")
	if err := WriteFileAtomic(path, false, func(w io.Writer) error { return WriteSharded(w, "district", shards) }); err != nil {
		t.Fatal(err)
	}
	key, eager, err := OpenShardsFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mkey, mapped, err := OpenShardsFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if key != "district" || mkey != key || len(mapped) != len(eager) || len(mapped) != 3 {
		t.Fatalf("keys (%q, %q), shards (%d eager, %d mapped)", key, mkey, len(eager), len(mapped))
	}
	for si := range mapped {
		if !mapped[si].Mapped() {
			t.Fatalf("shard %d did not open mapped", si)
		}
		eds, err := eager[si].Dataset()
		if err != nil {
			t.Fatal(err)
		}
		mds, err := mapped[si].Dataset()
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetsEqual(t, mds, eds)
	}
	// All shards share one refcounted mapping: closing one keeps the others
	// readable; the last Close releases the pages.
	m := mapped[0].m
	for si := 1; si < len(mapped); si++ {
		if mapped[si].m != m {
			t.Fatal("shards do not share one mapping")
		}
	}
	if err := mapped[0].Close(); err != nil {
		t.Fatal(err)
	}
	if m.data == nil {
		t.Fatal("mapping released while shards still reference it")
	}
	if c := mapped[1].Dims[0]; c.Dict[c.Codes[0]] == "" {
		t.Fatal("surviving shard unreadable after sibling Close")
	}
	if err := mapped[1].Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped[2].Close(); err != nil {
		t.Fatal(err)
	}
	if m.data != nil {
		t.Fatal("mapping still live after the last shard closed")
	}
}
