package cube_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/store"
)

// benchData builds the same shape as the root Recommend benchmarks — three
// two-level hierarchies whose full cross product carries one row per leaf
// combination (43200 rows) — plus its snapshot forms: a dataset without a
// cube (the scan baseline), one with the cube attached, and an
// append batch for the maintenance benchmark. Built once, shared read-only.
var benchData struct {
	once    sync.Once
	err     error
	coded   *data.Dataset // no cube: agg's row scan
	cubed   *data.Dataset // same rows with the materialized cube attached
	base    *store.Snapshot
	batch   []store.Row
	measure string
	attrs   []string // the Recommend hot path's first drill grouping
}

func benchFixtures(b *testing.B) {
	d := &benchData
	d.once.Do(func() {
		rng := rand.New(rand.NewSource(7))
		h := []data.Hierarchy{
			{Name: "geo", Attrs: []string{"region", "district"}},
			{Name: "time", Attrs: []string{"year", "month"}},
			{Name: "prod", Attrs: []string{"category", "item"}},
		}
		ds := data.New("bench", []string{"region", "district", "year", "month", "category", "item"}, []string{"sales"}, h)
		const regions, districts, years, months, categories, items = 5, 6, 4, 12, 5, 6
		for r := 0; r < regions; r++ {
			for dd := 0; dd < districts; dd++ {
				for y := 0; y < years; y++ {
					for m := 0; m < months; m++ {
						for c := 0; c < categories; c++ {
							for it := 0; it < items; it++ {
								ds.AppendRowVals([]string{
									fmt.Sprintf("r%d", r), fmt.Sprintf("r%d_d%d", r, dd),
									fmt.Sprintf("y%d", y), fmt.Sprintf("y%d_m%02d", y, m),
									fmt.Sprintf("c%d", c), fmt.Sprintf("c%d_i%d", c, it),
								}, []float64{100 + rng.NormFloat64()})
							}
						}
					}
				}
			}
		}
		if d.coded, d.err = store.FromDataset(ds).Dataset(); d.err != nil {
			return
		}
		snap := store.FromDataset(ds)
		if d.err = snap.BuildCube(); d.err != nil {
			return
		}
		if snap.Cube() == nil {
			d.err = fmt.Errorf("bench dataset did not materialize a cube")
			return
		}
		d.base = snap
		if d.cubed, d.err = snap.Dataset(); d.err != nil {
			return
		}
		// A 1k-row append batch over existing leaf combinations plus one new
		// district, so the merge both re-keys and extends.
		for i := 0; i < 1000; i++ {
			dist := fmt.Sprintf("r1_d%d", i%districts)
			if i%100 == 0 {
				dist = "r1_dnew"
			}
			d.batch = append(d.batch, store.Row{
				Dims: []string{"r1", dist, "y1", fmt.Sprintf("y1_m%02d", i%months),
					"c1", fmt.Sprintf("c1_i%d", i%items)},
				Measures: []float64{100 + rng.NormFloat64()},
			})
		}
		d.measure = "sales"
		d.attrs = []string{"region", "year", "category"}
	})
	if d.err != nil {
		b.Fatal(d.err)
	}
}

// BenchmarkGroupByCoded is the scan baseline: agg.GroupBy without a cube at
// the Recommend hot path's first drill grouping — every call rescans all
// 43200 rows. heap scans an eagerly-loaded dataset's slices, mapped the same
// columns as views over a memory-mapped .rst file: one kernel, two backings.
func BenchmarkGroupByCoded(b *testing.B) {
	benchFixtures(b)
	path := filepath.Join(b.TempDir(), "bench.rst")
	if err := store.FromDataset(benchData.coded).WriteFile(path); err != nil {
		b.Fatal(err)
	}
	snap, err := store.OpenMappedFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	mapped, err := snap.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		ds   *data.Dataset
	}{{"heap", benchData.coded}, {"mapped", mapped}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := agg.GroupBy(bc.ds, benchData.attrs, benchData.measure)
				if r.Len() != 100 {
					b.Fatalf("groups = %d", r.Len())
				}
			}
		})
	}
}

// leafShape builds a dataset of the repository benchmark's deep_fit shape —
// geo (3 levels), time and prod (2 each), one row per leaf combination, the
// cube attached — and returns it with its leaf-level grouping: the other
// hierarchies first, the drilled one last, as the engine orders them. With
// five villages per district that is 30 × 24 × 16 = 11,520 groups.
func leafShape(tb testing.TB, villages int) (*data.Dataset, []string) {
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "district", "village"}},
		{Name: "time", Attrs: []string{"year", "month"}},
		{Name: "prod", Attrs: []string{"category", "item"}},
	}
	ds := data.New("leaf", []string{"region", "district", "village", "year", "month", "category", "item"}, []string{"units"}, h)
	for v := 0; v < 6*villages; v++ {
		r, d := v/(2*villages), v/villages
		for m := 0; m < 24; m++ {
			for it := 0; it < 16; it++ {
				ds.AppendRowVals([]string{
					fmt.Sprintf("r%d", r), fmt.Sprintf("r%d_d%d", r, d), fmt.Sprintf("r%d_d%d_v%02d", r, d, v),
					fmt.Sprintf("y%d", m/12), fmt.Sprintf("y%d_m%02d", m/12, m),
					fmt.Sprintf("c%d", it/4), fmt.Sprintf("c%d_i%02d", it/4, it),
				}, []float64{float64((v*7 + m*3 + it) % 23)})
			}
		}
	}
	snap := store.FromDataset(ds)
	if err := snap.BuildCube(); err != nil {
		tb.Fatal(err)
	}
	cubed, err := snap.Dataset()
	if err != nil {
		tb.Fatal(err)
	}
	return cubed, []string{"year", "month", "category", "item", "region", "district", "village"}
}

// BenchmarkGroupByCube is the coded group-by the engine calls
// (agg.GroupByCodes) against a cube-attached dataset: it answers from the
// materialized level in O(groups) — first_drill orders 100 cells instead of
// scanning 43200 rows, leaf the 11,520 cells of a leaf-level drill state (the
// deep_fit shape), where the group-by is a visible share of a cold recommend.
// leaf asks in drill order, every hierarchy's attributes together, so each is
// ordered by its path and the sort key is placed directly; interleaved asks
// for the same cells with the hierarchies' attributes alternating, which only
// dictionary ranks and a radix sort can order. decoded is leaf through
// agg.GroupBy, the string edge, which also decodes every group's values.
func BenchmarkGroupByCube(b *testing.B) {
	benchFixtures(b)
	leaf, leafAttrs := leafShape(b, 5)
	for _, bc := range []struct {
		name    string
		ds      *data.Dataset
		attrs   []string
		groups  int
		groupBy func(*data.Dataset, []string, string) *agg.Result
	}{
		{"first_drill", benchData.cubed, benchData.attrs, 100, agg.GroupByCodes},
		{"leaf", leaf, leafAttrs, 11520, agg.GroupByCodes},
		{"interleaved", leaf, []string{"year", "region", "category", "month", "district", "item", "village"}, 11520, agg.GroupByCodes},
		{"decoded", leaf, leafAttrs, 11520, agg.GroupBy},
	} {
		b.Run(bc.name, func(b *testing.B) {
			measure := bc.ds.MeasureNames()[0]
			for i := 0; i < b.N; i++ {
				if r := bc.groupBy(bc.ds, bc.attrs, measure); r.Len() != bc.groups {
					b.Fatalf("groups = %d", r.Len())
				}
			}
		})
	}
}

// TestCubeGroupByAllocations: the coded group-by the engine calls hands codes
// and statistics over and decodes no string, so the number of allocations per
// call is a small constant of the grouping's shape — not a function of its
// group count.
func TestCubeGroupByAllocations(t *testing.T) {
	allocs := func(villages int) (float64, int) {
		ds, attrs := leafShape(t, villages)
		m, ok := agg.MaterializedOf(ds)
		if !ok {
			t.Fatal("no cube attached")
		}
		groups := 0
		return testing.AllocsPerRun(10, func() {
			r, ok := m.GroupBy(attrs, "units")
			if !ok {
				t.Fatal("cube declined the leaf grouping")
			}
			groups = r.Len()
		}), groups
	}
	small, nSmall := allocs(1)
	large, nLarge := allocs(5)
	if nSmall != 2304 || nLarge != 11520 {
		t.Fatalf("groups = %d and %d, want 2304 and 11520", nSmall, nLarge)
	}
	if small != large || large > 32 {
		t.Fatalf("allocations per GroupBy: %v for %d groups, %v for %d; want equal and at most 32", small, nSmall, large, nLarge)
	}
}

// BenchmarkCubeBuild measures materializing the full lattice from rows — the
// one-time cost a registration or convert -cube pays: cross, the 27 levels of
// three two-level hierarchies over their 43200-row cross product, and tall,
// the 36 levels of the repository benchmark's ≈ 300k-row dataset.
func BenchmarkCubeBuild(b *testing.B) {
	benchFixtures(b)
	for _, bc := range []struct {
		name string
		ds   *data.Dataset
	}{{"cross", benchData.coded}, {"tall", datasets.GenerateTall()}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cube.Build(bc.ds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.ds.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkCubeAppendMerge measures incremental maintenance: appending a
// 1000-row batch to the 43200-row snapshot, which builds a delta cube over
// just the batch and merges it into the successor version — against
// BenchmarkCubeBuild, the saving of not rebuilding from all rows.
func BenchmarkCubeAppendMerge(b *testing.B) {
	benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := store.NewBuilder(benchData.base).Append(benchData.batch)
		if err != nil {
			b.Fatal(err)
		}
		if next.Cube() == nil {
			b.Fatal("append dropped the cube")
		}
	}
}

// TestDeltaBuildAllocatesByBatch: a delta cube over a flush batch sizes every
// table it builds from the batch — 200 rows here — not from the 300k rows of
// the dataset the batch was appended to.
func TestDeltaBuildAllocatesByBatch(t *testing.T) {
	ds := datasets.GenerateTall()
	n := ds.NumRows()
	if n < 250_000 {
		t.Fatalf("test premise: %d rows", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := cube.BuildRows(ds, n-200, n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 200 || c.NumLevels() != 36 {
		t.Fatalf("delta covers %d rows over %d levels", c.NumRows(), c.NumLevels())
	}
	// The bound is one per-row int32 table of the dataset (1.2 MB): the build
	// allocates 0.9 MB, 1.1 MB under the race detector's instrumentation.
	if got, perRow := after.TotalAlloc-before.TotalAlloc, uint64(4*n); got >= perRow {
		t.Fatalf("BuildRows over 200 of %d rows allocated %d bytes, want under one per-row table (%d)", n, got, perRow)
	}
}
