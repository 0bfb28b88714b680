package cube_test

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/store"
)

// testDataset builds a two-hierarchy dataset with float measures (so
// bit-identity assertions are meaningful) and enough duplicate keys to make
// every lattice level aggregate more than one row per cell.
func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	ds := data.New("cube-test", []string{"region", "district", "village", "year"}, []string{"severity", "rain"}, h)
	type place struct{ r, d, v string }
	var places []place
	for r := 0; r < 3; r++ {
		for d := 0; d < 3; d++ {
			for v := 0; v < 2; v++ {
				places = append(places, place{
					r: string(rune('A' + r)),
					d: string(rune('A'+r)) + string(rune('a'+d)),
					v: string(rune('A'+r)) + string(rune('a'+d)) + string(rune('0'+v)),
				})
			}
		}
	}
	years := []string{"2019", "2020", "2021"}
	for i := 0; i < 600; i++ {
		p := places[rng.Intn(len(places))]
		y := years[rng.Intn(len(years))]
		ds.AppendRowVals([]string{p.r, p.d, p.v, y}, []float64{rng.NormFloat64() * 3, rng.Float64() * 100})
	}
	return ds
}

// codedDataset round-trips a dataset through a snapshot so every dimension
// carries dictionary codes but no cube is attached.
func codedDataset(t testing.TB, ds *data.Dataset) *data.Dataset {
	t.Helper()
	out, err := store.FromDataset(ds).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// prefixGroupings enumerates every hierarchy-prefix attribute list of the
// dataset in engine order (other hierarchies first, one hierarchy last), plus
// a few permuted variants.
func prefixGroupings(ds *data.Dataset) [][]string {
	var out [][]string
	var hiers []data.Hierarchy
	hiers = append(hiers, ds.Hierarchies...)
	// All depth combinations with at least one attribute.
	var walk func(hi int, cur []string)
	walk = func(hi int, cur []string) {
		if hi == len(hiers) {
			if len(cur) > 0 {
				out = append(out, append([]string(nil), cur...))
			}
			return
		}
		walk(hi+1, cur)
		for d := 1; d <= len(hiers[hi].Attrs); d++ {
			walk(hi+1, append(cur, hiers[hi].Attrs[:d]...))
		}
	}
	walk(0, nil)
	// Engine-style permutation: time first, geo prefix last.
	out = append(out, []string{"year", "region"}, []string{"year", "region", "district"})
	return out
}

func TestGroupByMatchesScanExactly(t *testing.T) {
	base := testDataset(t)
	coded := codedDataset(t, base)
	c, err := cube.Build(coded)
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range prefixGroupings(coded) {
		for _, measure := range coded.MeasureNames() {
			want := agg.GroupBy(coded, attrs, measure) // no cube attached: scan
			got, ok := c.GroupBy(attrs, measure)
			if !ok {
				t.Fatalf("GroupBy(%v, %s): cube declined", attrs, measure)
			}
			if !got.Equal(want) {
				t.Fatalf("GroupBy(%v, %s) differs from scan:\ncube: %+v\nscan: %+v",
					attrs, measure, got.Groups[:min(3, len(got.Groups))], want.Groups[:min(3, len(want.Groups))])
			}
		}
	}
}

func TestGroupByThroughAggAttachment(t *testing.T) {
	base := testDataset(t)
	plain := codedDataset(t, base)
	cubed := codedDataset(t, base)
	c, err := cube.Build(cubed)
	if err != nil {
		t.Fatal(err)
	}
	cubed.SetRollup(c)
	if _, ok := agg.MaterializedOf(cubed); !ok {
		t.Fatal("cube not discoverable through agg.MaterializedOf")
	}
	attrs := []string{"year", "region", "district"}
	want := agg.GroupBy(plain, attrs, "severity")
	got := agg.GroupBy(cubed, attrs, "severity")
	if !got.Equal(want) {
		t.Fatal("agg.GroupBy over attached cube differs from scan")
	}
	// Non-prefix groupings fall back to the scan transparently.
	np := agg.GroupBy(cubed, []string{"district"}, "severity")
	if !np.Equal(agg.GroupBy(plain, []string{"district"}, "severity")) {
		t.Fatal("fallback scan over attached cube differs from plain scan")
	}
}

func TestGroupByDeclines(t *testing.T) {
	c, err := cube.Build(codedDataset(t, testDataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		attrs   []string
		measure string
	}{
		{"non-prefix (gap)", []string{"district"}, "severity"},
		{"non-prefix (deep only)", []string{"village", "year"}, "severity"},
		{"unknown attribute", []string{"region", "nope"}, "severity"},
		{"duplicate attribute", []string{"region", "region"}, "severity"},
		{"unknown measure", []string{"region"}, "nope"},
		{"empty grouping", nil, "severity"},
	}
	for _, tc := range cases {
		if _, ok := c.GroupBy(tc.attrs, tc.measure); ok {
			t.Errorf("%s: cube answered, want decline", tc.name)
		}
	}
}

func TestHierarchyPaths(t *testing.T) {
	base := testDataset(t)
	coded := codedDataset(t, base)
	c, err := cube.Build(coded)
	if err != nil {
		t.Fatal(err)
	}
	paths, ok := c.HierarchyPaths(coded.Hierarchies[0])
	if !ok {
		t.Fatal("HierarchyPaths declined the dataset's own hierarchy")
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		seen[strings.Join(p, "/")] = true
	}
	want := make(map[string]bool)
	for row := 0; row < coded.NumRows(); row++ {
		want[coded.Dim("region")[row]+"/"+coded.Dim("district")[row]+"/"+coded.Dim("village")[row]] = true
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("paths = %v, want %v", seen, want)
	}
	if _, ok := c.HierarchyPaths(data.Hierarchy{Name: "geo", Attrs: []string{"region"}}); ok {
		t.Error("HierarchyPaths accepted a truncated hierarchy")
	}
}

func TestMergeMatchesRebuild(t *testing.T) {
	// Integer measures make merged floating-point sums exact, so the merged
	// cube must equal a from-scratch build bit for bit.
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	mk := func() *data.Dataset {
		return data.New("m", []string{"district", "village", "year"}, []string{"sev"}, h)
	}
	baseRows := [][]string{
		{"Ofla", "Adi", "1986"}, {"Ofla", "Adi", "1986"}, {"Ofla", "Zata", "1987"}, {"Raya", "Kuku", "1986"},
	}
	batch := []store.Row{
		{Dims: []string{"Ofla", "Adi", "1986"}, Measures: []float64{5}},    // existing cell
		{Dims: []string{"Raya", "Mehoni", "1988"}, Measures: []float64{7}}, // new village and year
		{Dims: []string{"Raya", "Mehoni", "1988"}, Measures: []float64{9}},
	}
	ds := mk()
	for i, r := range baseRows {
		ds.AppendRowVals(r, []float64{float64(i + 1)})
	}
	snap := store.FromDataset(ds)
	if err := snap.BuildCube(); err != nil {
		t.Fatal(err)
	}
	b := store.NewBuilder(snap)
	next, err := b.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	merged := next.Cube()
	if merged == nil {
		t.Fatal("append dropped the cube")
	}
	nds, err := next.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := cube.Build(nds)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 7 || merged.NumCells() != rebuilt.NumCells() {
		t.Fatalf("merged rows=%d cells=%d, rebuilt cells=%d", merged.NumRows(), merged.NumCells(), rebuilt.NumCells())
	}
	for _, attrs := range [][]string{{"district"}, {"district", "village"}, {"year"}, {"year", "district", "village"}} {
		got, ok1 := merged.GroupBy(attrs, "sev")
		want, ok2 := rebuilt.GroupBy(attrs, "sev")
		if !ok1 || !ok2 {
			t.Fatalf("GroupBy(%v) declined (merged %v rebuilt %v)", attrs, ok1, ok2)
		}
		if !got.Equal(want) {
			t.Fatalf("GroupBy(%v): merged differs from rebuilt", attrs)
		}
	}
	// The predecessor's cube is untouched.
	if snap.Cube().NumRows() != 4 {
		t.Error("merge mutated the base cube")
	}
}

func TestMergeRejectsSchemaMismatch(t *testing.T) {
	a, err := cube.Build(codedDataset(t, testDataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	other := data.New("o", []string{"x"}, []string{"m"}, []data.Hierarchy{{Name: "h", Attrs: []string{"x"}}})
	other.AppendRowVals([]string{"v"}, []float64{1})
	b, err := cube.Build(codedDataset(t, other))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched schemas succeeded")
	}
}

func TestBuildDeclines(t *testing.T) {
	// A lattice wider than maxLevels: 13 single-attribute hierarchies give
	// 2^13 > 4096 groupings.
	var dims []string
	var hiers []data.Hierarchy
	for i := 0; i < 13; i++ {
		name := "h" + string(rune('a'+i))
		dims = append(dims, name)
		hiers = append(hiers, data.Hierarchy{Name: name, Attrs: []string{name}})
	}
	ds := data.New("wide", dims, []string{"m"}, hiers)
	row := make([]string, len(dims))
	for i := range row {
		row[i] = "v"
	}
	ds.AppendRowVals(row, []float64{1})
	if _, err := cube.Build(codedDataset(t, ds)); err == nil {
		t.Fatal("wide lattice built")
	} else if !strings.Contains(err.Error(), "not cubable") {
		t.Fatalf("err = %v, want ErrNotCubable", err)
	}
}

func TestConcurrentQueries(t *testing.T) {
	coded := codedDataset(t, testDataset(t))
	c, err := cube.Build(coded)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.GroupBy([]string{"region", "year"}, "severity")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, ok := c.GroupBy([]string{"region", "year"}, "severity")
				if !ok || !got.Equal(want) {
					t.Error("concurrent GroupBy diverged")
					return
				}
				if _, ok := c.HierarchyPaths(data.Hierarchy{Name: "time", Attrs: []string{"year"}}); !ok {
					t.Error("concurrent HierarchyPaths declined")
					return
				}
			}
		}()
	}
	wg.Wait()
}
