package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
)

// cubeSnapshotBytes serializes the demo dataset with a materialized cube.
func cubeSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	snap := FromDataset(demoDataset())
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	if snap.Cube() == nil {
		t.Fatal("demo dataset did not materialize a cube")
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCubeSectionRoundTrip(t *testing.T) {
	b := cubeSnapshotBytes(t)
	snap, err := Open(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	c := snap.Cube()
	if c == nil {
		t.Fatal("cube section did not survive the round trip")
	}
	// demo dataset: geo (district, village) × time (year) → 3×2 lattice.
	if c.NumLevels() != 6 {
		t.Errorf("levels = %d, want 6", c.NumLevels())
	}
	if c.NumRows() != 6 {
		t.Errorf("cube rows = %d, want 6", c.NumRows())
	}
	// The loaded dataset carries the cube as its rollup attachment.
	ds, err := snap.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rollup() == nil {
		t.Error("loaded dataset has no rollup attachment")
	}
	// Re-serializing the loaded snapshot reproduces the file bit for bit.
	var again bytes.Buffer
	if err := snap.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), b) {
		t.Error("re-serialized snapshot differs from the original bytes")
	}
}

// TestBinaryRoundTrip writes a cube-carrying snapshot to disk and opens it
// eager and mapped: either open's cube equals the one that was written, cell
// table by cell table.
func TestBinaryRoundTrip(t *testing.T) {
	snap := FromDataset(quickstartDataset())
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotFile(t, snap)
	for _, mapped := range []bool{false, true} {
		_, shards, err := openPath(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shards[0].Cube(), snap.Cube()) {
			t.Errorf("mapped=%v: opened cube differs from the written one", mapped)
		}
		if err := shards[0].Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenWithoutCubeSectionStillWorks(t *testing.T) {
	// Pre-cube writers produce files without the section; they must load
	// exactly as before, just with no cube attached.
	var buf bytes.Buffer
	if err := FromDataset(demoDataset()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cube() != nil {
		t.Fatal("cube appeared out of nowhere")
	}
	ds, err := snap.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rollup() != nil {
		t.Error("rollup attached without a cube")
	}
}

// layoutCase is one .rst file shape the damage suites run over.
type layoutCase struct {
	name   string
	shards []*Snapshot
	file   []byte
}

// layoutCases writes demoDataset7 as n shards (rows round-robin), without
// and with per-shard cubes. The damage suites run over n = 1 (a plain file)
// and n = 2 (a partitioned one): every shape of the one layout.
func layoutCases(t *testing.T, n int) []layoutCase {
	t.Helper()
	var out []layoutCase
	for _, cubed := range []bool{false, true} {
		lc := layoutCase{name: fmt.Sprintf("shards=%d", n), shards: splitShards(t, demoDataset7(), n)}
		if cubed {
			lc.name += "+cube"
			for _, s := range lc.shards {
				if err := s.BuildCube(); err != nil || s.Cube() == nil {
					t.Fatalf("%s: no cube built: %v", lc.name, err)
				}
			}
		}
		key := ""
		if n > 1 {
			key = "district"
		}
		var buf bytes.Buffer
		if err := WriteSharded(&buf, key, lc.shards); err != nil {
			t.Fatal(err)
		}
		lc.file = buf.Bytes()
		out = append(out, lc)
	}
	return out
}

// TestOpenRejectsTruncationEverywhere cuts every plain layout at every byte
// offset — which covers every section boundary: inside the magic, header
// varints, dictionary strings, the directory, code and measure arrays, the
// cube section and the checksums — and asserts the decoder fails with a
// clean error (never a panic) on each.
func TestOpenRejectsTruncationEverywhere(t *testing.T) {
	for _, lc := range layoutCases(t, 1) {
		rejectTruncations(t, lc)
	}
}

// TestOpenRejectsResealedTruncation re-seals the file checksum after each
// truncation of every plain layout, so the damage reaches the section
// decoders instead of being caught by the whole-file CRC — the hardening the
// header CRC, the offset directory bounds checks, and the length checks
// inside the dictionary and cube sections provide. The header records every
// shard's payload and cube offsets under its CRC, so EVERY resealed
// truncation must fail cleanly.
func TestOpenRejectsResealedTruncation(t *testing.T) {
	for _, lc := range layoutCases(t, 1) {
		rejectResealedTruncations(t, lc)
	}
}

// TestOpenShardedRejectsTruncationEverywhere runs the three truncation
// sweeps — eager, mapped and re-sealed cuts — over the 2-shard layouts,
// where every cut also lands inside the second shard's payloads and cube
// section.
func TestOpenShardedRejectsTruncationEverywhere(t *testing.T) {
	for _, lc := range layoutCases(t, 2) {
		rejectTruncations(t, lc)
		rejectMappedTruncations(t, lc)
		rejectResealedTruncations(t, lc)
	}
}

// rejectTruncations asserts that every byte-level cut of lc fails to open
// eagerly.
func rejectTruncations(t *testing.T, lc layoutCase) {
	t.Helper()
	for cut := 0; cut < len(lc.file); cut++ {
		if _, _, err := openShards(lc.file[:cut], nil); err == nil {
			t.Fatalf("%s: truncation at offset %d/%d opened successfully", lc.name, cut, len(lc.file))
		}
	}
}

// rejectResealedTruncations asserts that every cut of lc whose file checksum
// is re-sealed fails to open.
func rejectResealedTruncations(t *testing.T, lc layoutCase) {
	t.Helper()
	for cut := 0; cut < len(lc.file)-4; cut++ {
		b := append(append([]byte(nil), lc.file[:cut]...), 0, 0, 0, 0)
		reseal(b)
		if _, _, err := openShards(b, nil); err == nil {
			t.Fatalf("%s: resealed truncation at offset %d/%d opened successfully", lc.name, cut, len(lc.file))
		}
	}
}

// openDamaged asserts that b fails to open with an error containing want,
// eagerly and through a file mapping.
func openDamaged(t *testing.T, b []byte, want string) {
	t.Helper()
	if _, _, err := openShards(b, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("eager err = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "damaged.rst")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ss, err := OpenShardsFile(path, true); err == nil || !strings.Contains(err.Error(), want) {
		for _, s := range ss {
			s.Close()
		}
		t.Fatalf("mapped err = %v, want %q", err, want)
	}
}

// cellTable returns where level li's keys and counts start in the cube
// section at sec of a file whose lattice has levels levels and whose schema
// has measures measures (the layout doc.go describes).
func cellTable(b []byte, sec, levels, measures, li int) (keys, counts int) {
	dir := sec + 8
	keys = dir + 8*levels
	for l := 0; l < li; l++ {
		keys += 8 * int(binary.LittleEndian.Uint64(b[dir+8*l:])) * (2 + 2*measures)
	}
	return keys, keys + 8*int(binary.LittleEndian.Uint64(b[dir+8*li:]))
}

// TestOpenRejectsCubeSectionDamage corrupts a cube section in targeted
// ways — the one shard's of a plain file, and the second shard's of a
// 2-shard file — with the outer file checksum re-sealed each time, so the
// section's own defenses (tag, version, zero padding, the level directory's
// bounds) and the cube's validation of its cell tables (key order and range,
// counts integral and covering the rows) are what reject the file,
// identically through the eager and the mapped open.
func TestOpenRejectsCubeSectionDamage(t *testing.T) {
	// The damaged section always holds the demo dataset's cube, so an edit
	// placed relative to it fails the same way in both files. Its lattice: geo (district, village) ×
	// time (year), 6 levels in order (geo depth, year depth); level 1 groups
	// by year alone, two cells keyed 0 (1986, 5 rows) and 1 (1987, 1 row).
	files := []struct {
		name   string
		shards []*Snapshot
	}{
		{"shards=1", shardsOf(t, demoDataset(), []int{0, 1, 2, 3, 4, 5})},
		{"shards=2", shardsOf(t, demoDataset(), []int{0, 5}, []int{0, 1, 2, 3, 4, 5})},
	}
	// where locates the damaged section of one file.
	type where struct {
		good                             []byte
		sec, dir, keys1, counts1, cells5 int
	}
	var wheres []where
	for _, fc := range files {
		key := ""
		if len(fc.shards) > 1 {
			key = "district"
		}
		for _, s := range fc.shards {
			if err := s.BuildCube(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := WriteSharded(&buf, key, fc.shards); err != nil {
			t.Fatal(err)
		}
		w := where{good: buf.Bytes()}
		w.sec = int(binary.LittleEndian.Uint64(w.good[dirEntry(headerCRCAt(t, w.good[:len(w.good)-4]), fc.shards, len(fc.shards)-1, 4):]))
		w.dir = w.sec + 8
		w.keys1, w.counts1 = cellTable(w.good, w.sec, 6, 1, 1)
		w.cells5 = int(binary.LittleEndian.Uint64(w.good[w.dir+8*5:]))
		wheres = append(wheres, w)
	}
	u64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	f64 := func(b []byte, off int, v float64) { u64(b, off, math.Float64bits(v)) }
	cases := []struct {
		name   string
		mutate func(b []byte, w where)
		want   string
	}{
		{"bad tag", func(b []byte, w where) { b[w.sec] = 'X' }, "unknown trailing section"},
		{"future section version", func(b []byte, w where) { b[w.sec+4] = CubeFormatVersion + 1 }, "cube section version"},
		{"nonzero padding", func(b []byte, w where) { b[w.sec+5] = 1 }, "nonzero alignment padding"},
		// The lowest mantissa bit of a count of 5.
		{"payload bit flip", func(b []byte, w where) { b[w.counts1] ^= 0x01 }, "bad count"},
		// Level 0's one cell shifts onto level 1 and the last level's arrays
		// end short of the section.
		{"zero payload length", func(b []byte, w where) { u64(b, w.dir, 0) }, "trailing bytes"},
		{"descending keys", func(b []byte, w where) { u64(b, w.keys1, 1); u64(b, w.keys1+8, 0) }, "keys not strictly ascending"},
		{"duplicate key", func(b []byte, w where) { u64(b, w.keys1+8, 0) }, "keys not strictly ascending"},
		{"key outside the key space", func(b []byte, w where) { u64(b, w.keys1+8, 2) }, "out of range"},
		{"zero count", func(b []byte, w where) { f64(b, w.counts1, 0) }, "bad count"},
		{"non-integral count", func(b []byte, w where) { f64(b, w.counts1, 4.5) }, "bad count"},
		{"counts short of the rows", func(b []byte, w where) { f64(b, w.counts1, 4) }, "covers 5 rows"},
		{"directory overruns the file", func(b []byte, w where) { u64(b, w.dir+8*5, 1<<40) }, "overrun the section"},
		{"one cell too many", func(b []byte, w where) { u64(b, w.dir+8*5, uint64(w.cells5+1)) }, "overrun the section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for fi, w := range wheres {
				t.Run(files[fi].name, func(t *testing.T) {
					b := append([]byte(nil), w.good...)
					tc.mutate(b, w)
					reseal(b)
					openDamaged(t, b, tc.want)
				})
			}
		})
	}
}

func TestWriteFileOpenFilePreservesCube(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/demo.rst"
	snap := FromDataset(demoDataset())
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cube() == nil {
		t.Fatal("cube lost through WriteFile/OpenFile")
	}
	back, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, back, demoDataset())
}

// TestOpenVersion1CubeSection opens a file written with a version-1 (varint)
// cube section, testdata/cube_v1.rst, eager and mapped: it opens without its
// cube and without an error, holds the quickstart survey, and recommends
// byte-identically to an engine whose dataset carries a built cube.
func TestOpenVersion1CubeSection(t *testing.T) {
	complaint := core.Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "Ofla", "year": "1986"}, Direction: core.TooHigh}
	recommend := func(ds *data.Dataset) []byte {
		t.Helper()
		eng, err := core.NewEngine(ds, core.Options{EMIterations: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Recommend(complaint)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, mapped := range []bool{false, true} {
		_, shards, err := openPath("testdata/cube_v1.rst", mapped)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		s := shards[0]
		if s.Cube() != nil {
			t.Fatalf("mapped=%v: a version-1 cube section yielded a cube", mapped)
		}
		ds, err := s.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetsEqual(t, ds, quickstartDataset())
		cubed := FromDataset(ds)
		if err := cubed.BuildCube(); err != nil {
			t.Fatal(err)
		}
		withCube, err := cubed.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		if withCube.Rollup() == nil {
			t.Fatal("reference dataset carries no cube")
		}
		if got, want := recommend(ds), recommend(withCube); !bytes.Equal(got, want) {
			t.Errorf("mapped=%v: recommendation without the cube differs from the cube-built one:\n%.400s\n%.400s", mapped, got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
