package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// noCubeLen returns the byte length of the same snapshot without its cube
// section — the one truncation point that yields a valid (pre-cube) file.
func noCubeLen(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := FromDataset(demoDataset()).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Len() - 4 // minus the file checksum, which truncation removes too
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
		_, shards, err := openPath(path, mapped, true)
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

// TestOpenRejectsTruncationEverywhere cuts a cube-carrying .rst at every
// byte offset — which covers every section boundary: inside the magic,
// header varints, dictionary strings, code and measure arrays, and the cube
// tag, version, length, payload and checksums — and asserts Open fails with
// a clean error (never a panic) on each.
func TestOpenRejectsTruncationEverywhere(t *testing.T) {
	good := cubeSnapshotBytes(t)
	for cut := 0; cut < len(good); cut++ {
		if _, err := Open(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at offset %d/%d opened successfully", cut, len(good))
		}
	}
}

// TestOpenRejectsResealedTruncation re-seals the file checksum after each
// truncation, so the damage reaches the section decoders instead of being
// caught by the whole-file CRC — the hardening the header CRC, the offset
// directory bounds checks, and the length checks inside the dictionary and
// cube sections provide. Unlike format v1 (where cutting exactly the cube
// section yielded a valid pre-cube file), v2 records the cube's offset in
// the CRC-protected header, so EVERY resealed truncation must fail cleanly.
func TestOpenRejectsResealedTruncation(t *testing.T) {
	good := cubeSnapshotBytes(t)
	for cut := 0; cut < len(good)-4; cut++ {
		b := append(append([]byte(nil), good[:cut]...), 0, 0, 0, 0)
		reseal(b)
		if _, err := Open(bytes.NewReader(b)); err == nil {
			t.Fatalf("resealed truncation at offset %d/%d opened successfully", cut, len(good))
		}
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

// TestOpenRejectsCubeSectionDamage corrupts the cube section in targeted
// ways — with the outer file checksum re-sealed each time, so the section's
// own defenses (tag, version, zero padding, the level directory's bounds)
// and the cube's validation of its cell tables (key order and range, counts
// integral and covering the rows) are what reject the file, identically
// through the eager and the mapped open.
func TestOpenRejectsCubeSectionDamage(t *testing.T) {
	good := cubeSnapshotBytes(t)
	plain := noCubeLen(t) // offset where the cube section begins
	// The demo lattice: geo (district, village) × time (year), 6 levels in
	// order (geo depth, year depth); level 1 groups by year alone, two cells
	// keyed 0 (1986, 5 rows) and 1 (1987, 1 row).
	dir := plain + 8
	keys1, counts1 := cellTable(good, plain, 6, 1, 1)
	last := int(binary.LittleEndian.Uint64(good[dir+8*5:]))
	u64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	f64 := func(off int, v float64) func([]byte) { return u64(off, math.Float64bits(v)) }
	cases := []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		{"bad tag", func(b []byte) { b[plain] = 'X' }, "unknown trailing section"},
		{"future section version", func(b []byte) { b[plain+4] = CubeFormatVersion + 1 }, "cube section version"},
		{"nonzero padding", func(b []byte) { b[plain+5] = 1 }, "nonzero alignment padding"},
		// The lowest mantissa bit of a count of 5.
		{"payload bit flip", func(b []byte) { b[counts1] ^= 0x01 }, "bad count"},
		// Level 0's one cell shifts onto level 1 and the last level's arrays
		// end short of the section.
		{"zero payload length", u64(dir, 0), "trailing bytes"},
		{"descending keys", func(b []byte) { u64(keys1, 1)(b); u64(keys1+8, 0)(b) }, "keys not strictly ascending"},
		{"duplicate key", u64(keys1+8, 0), "keys not strictly ascending"},
		{"key outside the key space", u64(keys1+8, 2), "out of range"},
		{"zero count", f64(counts1, 0), "bad count"},
		{"non-integral count", f64(counts1, 4.5), "bad count"},
		{"counts short of the rows", f64(counts1, 4), "covers 5 rows"},
		{"directory overruns the file", u64(dir+8*5, 1<<40), "overrun the section"},
		{"one cell too many", u64(dir+8*5, uint64(last+1)), "overrun the section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			reseal(b)
			if _, err := Open(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("eager err = %v, want %q", err, tc.want)
			}
			path := filepath.Join(t.TempDir(), "damaged.rst")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenMappedFile(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				if err == nil {
					s.Close()
				}
				t.Fatalf("mapped err = %v, want %q", err, tc.want)
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
		_, shards, err := openPath("testdata/cube_v1.rst", mapped, true)
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
