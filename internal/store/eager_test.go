package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// snapshotContents is a deep copy of everything a snapshot serves: its
// columns and dictionaries, its cube's cell tables, and its dataset's
// columns, floats as bits.
type snapshotContents struct {
	Dicts    [][]string
	Codes    [][]uint32
	Values   [][]uint64
	Tables   [][][]uint64
	DsDims   [][]string
	DsValues [][]uint64
}

func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func contentsOf(t *testing.T, s *Snapshot) snapshotContents {
	t.Helper()
	var c snapshotContents
	for _, d := range s.Dims {
		c.Dicts = append(c.Dicts, slices.Clone(d.Dict))
		c.Codes = append(c.Codes, slices.Clone(d.Codes))
	}
	for _, m := range s.Measures {
		c.Values = append(c.Values, floatBits(m.Values))
	}
	if s.Cube() != nil {
		for _, tb := range s.Cube().Tables() {
			cols := [][]uint64{slices.Clone(tb.Keys), floatBits(tb.Counts)}
			for mi := range tb.Sums {
				cols = append(cols, floatBits(tb.Sums[mi]), floatBits(tb.SumSqs[mi]))
			}
			c.Tables = append(c.Tables, cols)
		}
	}
	ds, err := s.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ds.DimNames() {
		c.DsDims = append(c.DsDims, ds.Dim(name))
	}
	for _, name := range ds.MeasureNames() {
		c.DsValues = append(c.DsValues, floatBits(ds.Measure(name)))
	}
	return c
}

// TestEagerOpenOutlivesItsFile: an eager open owns what it read. Each of a
// plain, a cubed and a 2-shard file is opened eagerly, then overwritten in
// place with other rows and removed; every column, dictionary, cube cell
// table and dataset column the open served reads as it did before. A
// MAP_SHARED mapped open makes no such promise: it reads the file's pages.
func TestEagerOpenOutlivesItsFile(t *testing.T) {
	dir := t.TempDir()
	write := func(path string, seed int64, cubed bool, shards int) {
		t.Helper()
		ds := randomSurvey(seed, 1001)
		parts := []*Snapshot{FromDataset(ds)}
		key := ""
		if shards > 1 {
			parts, key = splitShards(t, ds, shards), "region"
		}
		for _, s := range parts {
			if cubed {
				if err := s.BuildCube(); err != nil || s.Cube() == nil {
					t.Fatalf("cube: %v", err)
				}
			}
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSharded(f, key, parts); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		cubed  bool
		shards int
	}{{"plain", false, 1}, {"cubed", true, 1}, {"sharded", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".rst")
			write(path, 1, tc.cubed, tc.shards)
			key, shards, err := OpenShardsFile(path, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != tc.shards || (shards[0].Cube() != nil) != tc.cubed || (key != "") != (tc.shards > 1) {
				t.Fatalf("%d shards, cube %v, key %q", len(shards), shards[0].Cube() != nil, key)
			}
			before := make([]snapshotContents, len(shards))
			for si, s := range shards {
				before[si] = contentsOf(t, s)
			}
			// Rewrite the same inode with other rows of the same shape, then
			// unlink it.
			write(path, 2, tc.cubed, tc.shards)
			_, other, err := OpenShardsFile(path, false)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(contentsOf(t, other[0]), before[0]) {
				t.Fatal("the rewrite left shard 0's contents as they were")
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			for si, s := range shards {
				if s.Mapped() {
					t.Fatalf("shard %d opened mapped", si)
				}
				if after := contentsOf(t, s); !reflect.DeepEqual(after, before[si]) {
					t.Errorf("shard %d changed when its file was rewritten and removed", si)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
