package feature

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
)

// leafAttrs and leafHierarchies are the repository benchmark's deep_fit leaf
// drill state: seven attributes in three hierarchies, the drilled one last.
var (
	leafAttrs       = []string{"year", "month", "category", "item", "region", "district", "village"}
	leafHierarchies = []data.Hierarchy{
		{Name: "time", Attrs: leafAttrs[0:2]},
		{Name: "product", Attrs: leafAttrs[2:4]},
		{Name: "geo", Attrs: leafAttrs[4:7]},
	}
)

// leafFixture builds 11,520 leaf rows (30 villages × 24 months × 16 items),
// one per group of the leaf drill state. The measure is integer-valued and
// rich in ties, as counts are.
func leafFixture() *data.Dataset {
	ds := data.New("leaf", leafAttrs, []string{"units"}, nil)
	for v := 0; v < 30; v++ {
		for m := 0; m < 24; m++ {
			for it := 0; it < 16; it++ {
				ds.AppendRowVals([]string{
					fmt.Sprintf("y%d", m/12), fmt.Sprintf("y%d_m%02d", m/12, m),
					fmt.Sprintf("c%d", it/4), fmt.Sprintf("c%d_i%02d", it/4, it),
					fmt.Sprintf("r%d", v/10), fmt.Sprintf("r%d_d%d", v/10, v/5), fmt.Sprintf("r%d_d%d_v%02d", v/10, v/5, v),
				}, []float64{float64((v*7 + m*3 + it) % 23)})
			}
		}
	}
	return ds
}

// BenchmarkFeatureBuild times the main-effect featurization of the leaf
// fixture's 11,520 groups. In ties the modeled statistic is the fixture's; in
// nan one group's is NaN, so every median takes mat.Median's definition,
// bucket by bucket.
func BenchmarkFeatureBuild(b *testing.B) {
	ds := leafFixture()
	ties := agg.GroupBy(ds, leafAttrs, "units")
	ds.Measure("units")[0] = math.NaN()
	nan := agg.GroupBy(ds, leafAttrs, "units")
	for _, bc := range []struct {
		name   string
		groups *agg.Result
	}{{"ties", ties}, {"nan", nan}} {
		if len(bc.groups.Groups) != 11520 {
			b.Fatalf("groups = %d", len(bc.groups.Groups))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := Build(bc.groups, Spec{Target: agg.Mean})
				if err != nil {
					b.Fatal(err)
				}
				if len(set.Cols) != 1+len(leafAttrs) {
					b.Fatalf("columns = %d", len(set.Cols))
				}
			}
		})
	}
}

// BenchmarkFactorColumns times the factorised rendering of the leaf
// fixture's feature set over a factorizer built from the same dataset, every
// hierarchy at its full depth.
func BenchmarkFactorColumns(b *testing.B) {
	ds := leafFixture()
	set, err := Build(agg.GroupBy(ds, leafAttrs, "units"), Spec{Target: agg.Mean})
	if err != nil {
		b.Fatal(err)
	}
	var sources []*factor.Source
	var depths []int
	for _, h := range leafHierarchies {
		src, err := factor.SourceFromDataset(ds, h)
		if err != nil {
			b.Fatal(err)
		}
		sources, depths = append(sources, src), append(depths, len(h.Attrs))
	}
	fz, err := factor.New(sources, depths)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols, err := set.FactorColumns(fz)
		if err != nil {
			b.Fatal(err)
		}
		if len(cols) != 1+len(leafAttrs) {
			b.Fatalf("columns = %d", len(cols))
		}
	}
}
