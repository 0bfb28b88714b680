package repro

// One benchmark per paper table/figure. Each bench drives
// the corresponding runner in internal/experiments at a scale suitable for
// iteration; cmd/experiments -scale full reproduces the paper-scale sweeps
// and prints the result tables.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/shard"
	"repro/internal/store"
)

func BenchmarkFig7MatrixOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(4, 1)
	}
}

func BenchmarkFig8MultiQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8([]int{200, 400}, 1)
	}
}

func BenchmarkFig9DrillDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(4000, 1)
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(0.02, 3, 1)
	}
}

func BenchmarkFig11Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(3, []float64{0.8}, 1)
	}
}

func BenchmarkFig12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(3, []float64{0.8}, 1)
	}
}

func BenchmarkFig13Covid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(1)
	}
}

func BenchmarkFig15ClusterOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15(3, 1)
	}
}

func BenchmarkFig16AIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig16(5, 1)
	}
}

func BenchmarkFig18Vote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig18(1)
	}
}

func BenchmarkFISTStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.FISTStudy(5, 1)
	}
}

// recommendBenchData builds the multi-hierarchy dataset for the Recommend
// parallelism benchmarks: three two-level hierarchies (geo, time, product)
// whose full cross product carries one row per leaf combination, with
// additive per-value effects. Built once and shared read-only.
var recommendBenchData struct {
	once sync.Once
	ds   *data.Dataset
}

func recommendBenchDataset() *data.Dataset {
	d := &recommendBenchData
	d.once.Do(func() {
		rng := rand.New(rand.NewSource(7))
		h := []data.Hierarchy{
			{Name: "geo", Attrs: []string{"region", "district"}},
			{Name: "time", Attrs: []string{"year", "month"}},
			{Name: "prod", Attrs: []string{"category", "item"}},
		}
		ds := data.New("bench", []string{"region", "district", "year", "month", "category", "item"}, []string{"sales"}, h)
		effect := func(n int, scale float64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = rng.NormFloat64() * scale
			}
			return out
		}
		const regions, districts, years, months, categories, items = 5, 6, 4, 12, 5, 6
		re, de := effect(regions, 3), effect(regions*districts, 1)
		ye, me := effect(years, 2), effect(years*months, 1)
		ce, ie := effect(categories, 2), effect(categories*items, 1)
		for r := 0; r < regions; r++ {
			for dd := 0; dd < districts; dd++ {
				for y := 0; y < years; y++ {
					for m := 0; m < months; m++ {
						for c := 0; c < categories; c++ {
							for it := 0; it < items; it++ {
								base := 100 + re[r] + de[r*districts+dd] + ye[y] + me[y*months+m] + ce[c] + ie[c*items+it]
								ds.AppendRowVals([]string{
									fmt.Sprintf("r%d", r), fmt.Sprintf("r%d_d%d", r, dd),
									fmt.Sprintf("y%d", y), fmt.Sprintf("y%d_m%02d", y, m),
									fmt.Sprintf("c%d", c), fmt.Sprintf("c%d_i%d", c, it),
								}, []float64{base + rng.NormFloat64()})
							}
						}
					}
				}
			}
		}
		d.ds = ds
	})
	return d.ds
}

// benchmarkRecommend measures one full Recommend over the three drillable
// hierarchies (a SUM complaint, so each fits two models: six independent
// work units). A fresh session per iteration keeps the session cache out of
// the measurement.
func benchmarkRecommend(b *testing.B, workers int) {
	ds := recommendBenchDataset()
	eng, err := core.NewEngine(ds, core.Options{EMIterations: 10, Trainer: core.TrainerNaive, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	c := core.Complaint{
		Agg:       agg.Sum,
		Measure:   "sales",
		Tuple:     data.Predicate{"region": "r1", "year": "y1", "category": "c1"},
		Direction: core.TooLow,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := eng.NewSession([]string{"region", "year", "category"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Recommend(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecommendSequential(b *testing.B) { benchmarkRecommend(b, 1) }

func BenchmarkRecommendParallel(b *testing.B) { benchmarkRecommend(b, runtime.NumCPU()) }

// BenchmarkRecommendSharded measures the full sharded serving configuration
// at 1, 2, 4 and 8 shards: the dataset partitioned on its first hierarchy
// root, per-shard rollup cubes materialized, and the scatter-gather engine
// fanning each aggregation across the shards on the default worker pool —
// i.e. what `reptiled -shards N` actually runs, in contrast to the
// single-worker cube-less scans of RecommendSequential above.
func BenchmarkRecommendSharded(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			set, err := shard.Partition(store.FromDataset(recommendBenchDataset()), n, "")
			if err != nil {
				b.Fatal(err)
			}
			if err := set.BuildCubes(); err != nil {
				b.Fatal(err)
			}
			eng, err := set.Engine(core.Options{EMIterations: 10, Trainer: core.TrainerNaive})
			if err != nil {
				b.Fatal(err)
			}
			c := core.Complaint{
				Agg:       agg.Sum,
				Measure:   "sales",
				Tuple:     data.Predicate{"region": "r1", "year": "y1", "category": "c1"},
				Direction: core.TooLow,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := eng.NewSession([]string{"region", "year", "category"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.Recommend(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
