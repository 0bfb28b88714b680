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
// absentee benchmark dataset persisted once as CSV and once as .rst.
var loadBench struct {
	once     sync.Once
	err      error
	csvPath  string
	rstPath  string
	rows     int
	csvBytes int64
	rstBytes int64
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

func loadBenchFixtures(b *testing.B) (csvPath, rstPath string) {
	lb := &loadBench
	lb.once.Do(func() {
		dir, err := os.MkdirTemp("", "reptile-loadbench")
		if err != nil {
			lb.err = err
			return
		}
		ds := datasets.GenerateAbsentee(1, loadBenchRows)
		lb.rows = ds.NumRows()
		lb.csvPath = filepath.Join(dir, "absentee.csv")
		f, err := os.Create(lb.csvPath)
		if err != nil {
			lb.err = err
			return
		}
		if err := ds.WriteCSV(f); err != nil {
			lb.err = err
			return
		}
		if err := f.Close(); err != nil {
			lb.err = err
			return
		}
		lb.rstPath = filepath.Join(dir, "absentee.rst")
		if err := FromDataset(ds).WriteFile(lb.rstPath); err != nil {
			lb.err = err
			return
		}
		ci, err := os.Stat(lb.csvPath)
		if err != nil {
			lb.err = err
			return
		}
		ri, err := os.Stat(lb.rstPath)
		if err != nil {
			lb.err = err
			return
		}
		lb.csvBytes, lb.rstBytes = ci.Size(), ri.Size()
	})
	if lb.err != nil {
		b.Fatal(lb.err)
	}
	return lb.csvPath, lb.rstPath
}

// BenchmarkLoadCSV measures the full CSV (re)load path a dataset
// registration pays today: parse, column materialization, and hierarchy
// validation.
func BenchmarkLoadCSV(b *testing.B) {
	csvPath, _ := loadBenchFixtures(b)
	b.SetBytes(loadBench.csvBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := data.ReadCSVFile(csvPath, "absentee", []string{"one"}, absenteeHierarchies)
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumRows() != loadBench.rows {
			b.Fatalf("rows = %d", ds.NumRows())
		}
	}
}

// BenchmarkLoadSnapshot measures the equivalent .rst path: checksum, decode,
// dataset materialization, and (coded) hierarchy validation.
func BenchmarkLoadSnapshot(b *testing.B) {
	_, rstPath := loadBenchFixtures(b)
	b.SetBytes(loadBench.rstBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := OpenFile(rstPath)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := snap.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumRows() != loadBench.rows {
			b.Fatalf("rows = %d", ds.NumRows())
		}
	}
}

// BenchmarkOpenMapped measures the mmap-backed open: header parse and
// validation streamed over the mapping, no column materialization. The
// interesting column under -benchmem is B/op — residency is O(dictionaries),
// not O(rows).
func BenchmarkOpenMapped(b *testing.B) {
	_, rstPath := loadBenchFixtures(b)
	b.SetBytes(loadBench.rstBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := OpenMappedFile(rstPath)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := snap.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumRows() != loadBench.rows {
			b.Fatalf("rows = %d", ds.NumRows())
		}
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
