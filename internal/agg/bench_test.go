package agg_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// BenchmarkScanGroupBy sweeps the row scan over the quantity its bucketing
// kernel (data.TupleIndex) chooses a look-up from: the key space — the product
// of the attributes' dictionary sizes — relative to the rows scanned. 2^18 rows
// draw two codes uniformly from dictionaries of side² = ratio × rows keys.
// chosen scans those columns as they are, so the kernel probes its slot table
// wherever the ratio is within its bound; padded scans the same codes (hence
// the same keys, groups and result) after the first dictionary has been
// lengthened with entries no row uses until the key space is past 64 × rows,
// which takes the hash map. Where the two differ is what the table buys at that
// ratio; to see a table beyond the bound, raise data.TableSpacePerTuple and
// rerun — CHANGES.md PR 22 records that sweep.
func BenchmarkScanGroupBy(b *testing.B) {
	const rows = 1 << 18
	for _, bc := range []struct {
		ratio string
		side  int
	}{{"1÷64", 1 << 6}, {"1÷4", 1 << 8}, {"1", 1 << 9}, {"4", 1 << 10}, {"16", 1 << 11}, {"64", 1 << 12}} {
		rng := rand.New(rand.NewSource(int64(bc.side)))
		dict := make([]string, bc.side)
		for c := range dict {
			dict[c] = strconv.Itoa(c)
		}
		c0, c1, m := make([]uint32, rows), make([]uint32, rows), make([]float64, rows)
		for row := range m {
			c0[row], c1[row], m[row] = uint32(rng.Intn(bc.side)), uint32(rng.Intn(bc.side)), rng.NormFloat64()
		}
		padded := append(dict[:bc.side:bc.side], make([]string, 64*rows/bc.side)...)
		for _, v := range []struct {
			name string
			dict []string
		}{{"chosen", dict}, {"padded", padded}} {
			d, err := data.FromColumns("sweep", []data.DimColumn{
				{Name: "a", Dict: v.dict, Codes: c0}, {Name: "b", Dict: dict, Codes: c1},
			}, []data.MeasureColumn{{Name: "m", Values: m}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("space÷rows="+bc.ratio+"/"+v.name, func(b *testing.B) {
				groups := 0
				for i := 0; i < b.N; i++ {
					groups = len(agg.GroupBy(d, []string{"a", "b"}, "m").Groups)
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
				b.ReportMetric(float64(groups), "groups")
			})
		}
	}
}
