package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/datasets"
)

// loadBench holds the on-disk fixtures for the load benchmarks: the gendata
// absentee benchmark dataset persisted once as CSV and as .rst, without and
// with its cube section.
var loadBench struct {
	once     sync.Once
	err      error
	csvPath  string
	rows     int
	csvBytes int64
	rst      []rstFixture
}

// rstFixture is one .rst form of the load benchmarks' dataset.
type rstFixture struct {
	name, path string
	bytes      int64
}

const loadBenchRows = 50_000

// absenteeHierarchySpec mirrors datasets.GenerateAbsentee's metadata in the
// CLI notation, for reloading the CSV.
var absenteeHierarchies = []data.Hierarchy{
	{Name: "county", Attrs: []string{"county"}},
	{Name: "party", Attrs: []string{"party"}},
	{Name: "week", Attrs: []string{"week"}},
	{Name: "gender", Attrs: []string{"gender"}},
}

func loadBenchFixtures(tb testing.TB) {
	lb := &loadBench
	lb.once.Do(func() {
		lb.err = func() error {
			dir, err := os.MkdirTemp("", "reptile-loadbench")
			if err != nil {
				return err
			}
			ds := datasets.GenerateAbsentee(1, loadBenchRows)
			lb.rows = ds.NumRows()
			lb.csvPath = filepath.Join(dir, "absentee.csv")
			f, err := os.Create(lb.csvPath)
			if err != nil {
				return err
			}
			if err := ds.WriteCSV(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if lb.csvBytes, err = fileSize(lb.csvPath); err != nil {
				return err
			}
			snap := FromDataset(ds)
			for _, name := range []string{"plain", "cube"} {
				if name == "cube" {
					if err := snap.BuildCube(); err != nil {
						return err
					}
				}
				fx := rstFixture{name: name, path: filepath.Join(dir, "absentee."+name+".rst")}
				if err := snap.WriteFile(fx.path); err != nil {
					return err
				}
				if fx.bytes, err = fileSize(fx.path); err != nil {
					return err
				}
				lb.rst = append(lb.rst, fx)
			}
			return nil
		}()
	})
	if lb.err != nil {
		tb.Fatal(lb.err)
	}
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// BenchmarkLoadCSV measures the full CSV (re)load path a dataset
// registration pays today: parse, column materialization, and hierarchy
// validation.
func BenchmarkLoadCSV(b *testing.B) {
	loadBenchFixtures(b)
	b.SetBytes(loadBench.csvBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := data.ReadCSVFile(loadBench.csvPath, "absentee", []string{"one"}, absenteeHierarchies)
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumRows() != loadBench.rows {
			b.Fatalf("rows = %d", ds.NumRows())
		}
	}
}

// benchOpen runs open over each .rst form — plain, and with its cube
// section — as a sub-benchmark: open, dataset materialization, then close.
func benchOpen(b *testing.B, open func(string) (*Snapshot, error)) {
	loadBenchFixtures(b)
	for _, fx := range loadBench.rst {
		b.Run(fx.name, func(b *testing.B) {
			b.SetBytes(fx.bytes)
			for i := 0; i < b.N; i++ {
				snap, err := open(fx.path)
				if err != nil {
					b.Fatal(err)
				}
				ds, err := snap.Dataset()
				if err != nil {
					b.Fatal(err)
				}
				if ds.NumRows() != loadBench.rows || (snap.Cube() != nil) != (fx.name == "cube") {
					b.Fatalf("rows = %d, cube %v", ds.NumRows(), snap.Cube() != nil)
				}
				if err := snap.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadSnapshot measures the equivalent .rst path: checksum, decode,
// dataset materialization, (coded) hierarchy validation and, in the cube
// case, reading and validating the cell tables.
func BenchmarkLoadSnapshot(b *testing.B) { benchOpen(b, OpenFile) }

// TestEagerOpenAllocatesTheFileOnce: an eager open of each load benchmark
// fixture, its validated dataset included, allocates the file once — the one
// read its columns and cube cell tables are views into — plus its
// dictionaries and under 64 KB of anything else.
func TestEagerOpenAllocatesTheFileOnce(t *testing.T) {
	loadBenchFixtures(t)
	for _, fx := range loadBench.rst {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		snap, err := OpenFile(fx.path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if snap.ds == nil || (snap.Cube() != nil) != (fx.name == "cube") {
			t.Fatalf("%s: dataset %v, cube %v", fx.name, snap.ds != nil, snap.Cube() != nil)
		}
		dicts := 0
		for _, c := range snap.Dims {
			dicts += 16 * len(c.Dict) // string headers
			for _, v := range c.Dict {
				dicts += len(v)
			}
		}
		got, budget := after.TotalAlloc-before.TotalAlloc, uint64(fx.bytes)+uint64(dicts)+64<<10
		t.Logf("%s: %d bytes allocated opening a %d-byte file with %d bytes of dictionaries", fx.name, got, fx.bytes, dicts)
		if got > budget {
			t.Errorf("%s: eager open allocated %d bytes, want at most the file (%d) plus dictionaries (%d) plus 64 KB", fx.name, got, fx.bytes, dicts)
		}
	}
}

// BenchmarkOpenMapped measures the mmap-backed open: header parse and
// validation streamed over the mapping, no column or cell-table
// materialization. The interesting column under -benchmem is B/op —
// residency is O(dictionaries + cube level directory), not O(rows) or
// O(cells).
func BenchmarkOpenMapped(b *testing.B) { benchOpen(b, OpenMappedFile) }

// flushLineage starts an append lineage on the cubed snapshot of the
// repository benchmark's tall shape (≈ 300k rows) and returns it with
// 200-row flush batches re-drawn from the dataset's own rows, measures
// changed.
func flushLineage(tb testing.TB, batches int) (*Builder, [][]Row) {
	tb.Helper()
	ds := datasets.GenerateTall()
	snap := FromDataset(ds)
	if err := snap.BuildCube(); err != nil || snap.Cube() == nil {
		tb.Fatalf("cube: %v", err)
	}
	dims := make([][]string, len(snap.Dims))
	for i, c := range snap.Dims {
		dims[i] = ds.Dim(c.Name)
	}
	rng := rand.New(rand.NewSource(1))
	out := make([][]Row, batches)
	for bi := range out {
		out[bi] = make([]Row, 200)
		for ri := range out[bi] {
			r := rng.Intn(ds.NumRows())
			row := Row{Dims: make([]string, len(dims)), Measures: []float64{float64(rng.Intn(100)), float64(rng.Intn(300))}}
			for i := range dims {
				row.Dims[i] = dims[i][r]
			}
			out[bi][ri] = row
		}
	}
	return NewBuilder(snap), out
}

// TestFlushAllocatesByBatch: the second 200-row flush of a lineage onto the
// tall snapshot — the first copied the columns, which the snapshot shares
// with its dataset — allocates less than one copy of the cube's cell tables
// plus one column, and nothing per cell.
func TestFlushAllocatesByBatch(t *testing.T) {
	b, batches := flushLineage(t, 2)
	if _, err := b.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	base := b.Snapshot()
	cells := base.Cube().NumCells()
	tables := uint64(cells) * uint64(8*(2+2*len(base.Measures))) // key, count, per measure sum and sum of squares
	column := uint64(8 * base.NumRows())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, err := b.Append(batches[1])
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if next.NumRows() != base.NumRows()+200 || next.Cube() == nil {
		t.Fatalf("flush gave %d rows, cube %v", next.NumRows(), next.Cube() != nil)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= tables+column {
		t.Errorf("flush allocated %d bytes, want under one copy of the cell tables (%d) plus one column (%d)", got, tables, column)
	}
	if got := after.Mallocs - before.Mallocs; got >= uint64(cells/20) {
		t.Errorf("flush made %d allocations over %d cells, want under %d", got, cells, cells/20)
	}
}

// BenchmarkBuilderAppend measures a lineage of 200-row flushes onto the tall
// snapshot: encode, grow the columns, check the batch, merge its delta cube.
func BenchmarkBuilderAppend(b *testing.B) {
	bld, batches := flushLineage(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Append(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}
