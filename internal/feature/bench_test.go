package feature

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// BenchmarkFeatureBuild times the main-effect featurization of a leaf-level
// drill state at the repository benchmark's deep_fit shape: 11,520 groups
// over seven attributes (30 villages × 24 months × 16 items). In ties the
// modeled statistic is integer-valued and rich in ties, as counts are; in nan
// one group's is NaN, so every median takes mat.Median's definition, bucket
// by bucket.
func BenchmarkFeatureBuild(b *testing.B) {
	attrs := []string{"year", "month", "category", "item", "region", "district", "village"}
	ds := data.New("leaf", attrs, []string{"units"}, nil)
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
	ties := agg.GroupBy(ds, attrs, "units")
	ds.Measure("units")[0] = math.NaN()
	nan := agg.GroupBy(ds, attrs, "units")
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
				if len(set.Cols) != 1+len(attrs) {
					b.Fatalf("columns = %d", len(set.Cols))
				}
			}
		})
	}
}
