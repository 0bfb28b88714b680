package store

import (
	"os"
	"path/filepath"
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

func loadBenchFixtures(b *testing.B) {
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
		b.Fatal(lb.err)
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

// BenchmarkOpenMapped measures the mmap-backed open: header parse and
// validation streamed over the mapping, no column or cell-table
// materialization. The interesting column under -benchmem is B/op —
// residency is O(dictionaries + cube level directory), not O(rows) or
// O(cells).
func BenchmarkOpenMapped(b *testing.B) { benchOpen(b, OpenMappedFile) }
