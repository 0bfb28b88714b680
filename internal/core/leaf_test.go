package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
)

// leafHierarchies is the wide shape's schema: three hierarchies whose leaf
// cross product is 30 villages × 24 months × 16 items.
var leafHierarchies = []data.Hierarchy{
	{Name: "geo", Attrs: []string{"region", "district", "village"}},
	{Name: "time", Attrs: []string{"year", "month"}},
	{Name: "prod", Attrs: []string{"category", "item"}},
}

// leafDataset generates the wide leaf fixture: 90 % of the 11,520 leaf
// combinations hold rows (about two each), with additive per-level effects and
// integer measures, so sums are exact and a 2-shard gather merges to the bits
// of one scan.
func leafDataset(seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := data.New("wide", []string{"region", "district", "village", "year", "month", "category", "item"}, []string{"units", "cost"}, leafHierarchies)
	var villages [][3]string
	var effV []float64
	for r := 0; r < 3; r++ {
		er := rng.NormFloat64() * 12
		for d := 0; d < 2; d++ {
			ed := er + rng.NormFloat64()*6
			for v := 0; v < 5; v++ {
				villages = append(villages, [3]string{fmt.Sprintf("r%d", r), fmt.Sprintf("r%d-d%d", r, d), fmt.Sprintf("r%d-d%d-v%d", r, d, v)})
				effV = append(effV, ed+rng.NormFloat64()*3)
			}
		}
	}
	var months [][2]string
	var effM []float64
	for y := 0; y < 2; y++ {
		for m := 0; m < 12; m++ {
			months = append(months, [2]string{fmt.Sprint(2015 + y), fmt.Sprintf("%d-%02d", 2015+y, m+1)})
			effM = append(effM, float64(y)*4+6*math.Sin(float64(m)/12*2*math.Pi)+rng.NormFloat64())
		}
	}
	var items [][2]string
	var effI []float64
	for c := 0; c < 4; c++ {
		ec := rng.NormFloat64() * 10
		for i := 0; i < 4; i++ {
			items = append(items, [2]string{fmt.Sprintf("c%d", c), fmt.Sprintf("c%d-i%d", c, i)})
			effI = append(effI, ec+rng.NormFloat64()*4)
		}
	}
	for v, vd := range villages {
		for m, md := range months {
			for i, id := range items {
				if rng.Float64() >= 0.9 {
					continue
				}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					units := math.Max(0, math.Round(100+effV[v]+effM[m]+effI[i]+rng.NormFloat64()*8))
					cost := math.Max(0, math.Round(3*units+rng.NormFloat64()*15))
					ds.AppendRowVals([]string{vd[0], vd[1], vd[2], md[0], md[1], id[0], id[1]}, []float64{units, cost})
				}
			}
		}
	}
	return ds
}

// leafConfig is one way of serving the leaf fixture: with or without a cube,
// on one node or gathered from two shards split by region, at a worker count.
type leafConfig struct {
	name    string
	cube    bool
	shards  int
	workers int
}

var leafConfigs = []leafConfig{
	{"scan/w1", false, 1, 1},
	{"scan/w2", false, 1, 2},
	{"cube/w1", true, 1, 1},
	{"cube/w2", true, 1, 2},
	{"shards2/w2", true, 2, 2},
	{"shards2-scan/w1", false, 2, 1},
}

// leafEngine serves ds as cfg says. Shards are selections of ds's rows, so
// they share its dictionaries; each gets its own cube.
func leafEngine(t testing.TB, ds *data.Dataset, cfg leafConfig) *Engine {
	t.Helper()
	withCube := func(d *data.Dataset) *data.Dataset {
		if cfg.cube {
			c, err := cube.Build(d)
			if err != nil {
				t.Fatal(err)
			}
			d.SetRollup(c)
		}
		return d
	}
	opts := Options{Workers: cfg.workers}
	if cfg.shards == 1 {
		eng, err := NewEngine(withCube(ds.Clone()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	parts := make([][]int, cfg.shards)
	region := ds.Dim("region")
	for row := range ds.NumRows() {
		s := int(region[row][1]-'0') % cfg.shards
		parts[s] = append(parts[s], row)
	}
	workers := make([]ShardWorker, cfg.shards)
	for s, rows := range parts {
		workers[s] = LocalShard(withCube(ds.Select(rows)))
	}
	eng, err := NewShardedEngine(withCube(ds.Select(parts[0])), workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// leafPinStates are the three drill states one level short of the leaves in
// exactly one hierarchy, so each recommend drills into the leaf relation.
var leafPinStates = [][]string{
	{"region", "district", "year", "month", "category", "item"},
	{"region", "district", "village", "year", "category", "item"},
	{"region", "district", "village", "year", "month", "category"},
}

// leafComplaint complains, in a direction alternating with i, about the group
// at groupBy that the fixture's row number row falls in.
func leafComplaint(ds *data.Dataset, groupBy []string, f agg.Func, row, i int) Complaint {
	c := Complaint{Agg: f, Measure: "units", Direction: TooHigh, Tuple: data.Predicate{}}
	if i%2 == 1 {
		c.Direction, c.Measure = TooLow, "cost"
	}
	for _, a := range groupBy {
		c.Tuple[a] = ds.Dim(a)[row]
	}
	return c
}

// pinnedLeaf records the sha256 of the recommendation JSON at each leaf pin
// state (by index into leafPinStates) and aggregate: every configuration must
// produce these bytes.
var pinnedLeaf = map[string]string{
	"0/mean":  "eee2225ba08bf70b66de6901edf93b42690c5d1304c91caae3610223f24dbcb9",
	"0/std":   "f2fbea80a2ed10f2c8828393d89e01089967432387a18188d7d3a9579896a405",
	"0/sum":   "0b64652ed0c6640addb58896aa756aa8dc0c346709e43ad7bffc46eda5a92eb3",
	"0/count": "4f315843b9da324a710f26e3245dd34d830dd1ff7768ef6ad80c5db171ba89a5",
	"1/mean":  "51c2d8e41b62982003d2e03164eb0a6c436e63290f2c0477e93b3c3719d436e8",
	"1/std":   "cff16f53e7e9d0df4b46b77ddd6a43f1bc85ac8df7aae28b2d082395ec1c2cd7",
	"1/sum":   "16956c4134ae7421eb2f6a14b07a827c25e9a069f7f6b389b2760e4cc0fe7699",
	"1/count": "b6a6778b3573209475722d6f25263ee7426bc0a024360f583d7009ad92191d53",
	"2/mean":  "2b1376c81a6400a4fee2def9a833bafe6f0240e74328cafc6fa94bddc291d274",
	"2/std":   "5f2287ba3f60e47c1f7f9e6c1690f4dc142b47c15003510d11c3fbea2069a366",
	"2/sum":   "c611ad70524b704d5b6c3374645ad6d82705aa07e126aea59fa7c2a4013ca9f7",
	"2/count": "61b10756dacf5dd004d310ec5b5d94a1cdc77b407ed2ec1c7a47aa000a78b105",
}

// TestLeafRecommendationsPinned pins the answers at the leaf drill states of
// a wide fixture (≈ 10k groups over three hierarchies), for every aggregate,
// whether the drilled relation comes from a row scan, a cube or a 2-shard
// gather, at one worker or two.
func TestLeafRecommendationsPinned(t *testing.T) {
	ds := leafDataset(1)
	leaves := []string{"region", "district", "village", "year", "month", "category", "item"}
	if n := len(agg.GroupBy(ds, leaves, "units").Groups); n < 5000 {
		t.Fatalf("the fixture's leaf relation has %d groups, want at least 5,000", n)
	}
	for _, cfg := range leafConfigs {
		eng := leafEngine(t, ds, cfg)
		for si, groupBy := range leafPinStates {
			for fi, f := range []agg.Func{agg.Mean, agg.Std, agg.Sum, agg.Count} {
				sess, err := eng.NewSession(groupBy)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := sess.Recommend(leafComplaint(ds, groupBy, f, 97*(si*4+fi+1), fi))
				if err != nil {
					t.Fatalf("%s state %d %s: %v", cfg.name, si, f, err)
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				label := fmt.Sprintf("%d/%s", si, f)
				if got, want := hex.EncodeToString(sum[:]), pinnedLeaf[label]; got != want {
					t.Errorf("%s %s: digest %s, pinned %s", cfg.name, label, got, want)
				}
			}
		}
	}
}

// leafLattice lists every grouping of the fixture's lattice: one prefix per
// hierarchy, at least one attribute in all.
func leafLattice() [][]string {
	var out [][]string
	for g := 0; g <= 3; g++ {
		for tm := 0; tm <= 2; tm++ {
			for p := 0; p <= 2; p++ {
				if g+tm+p == 0 {
					continue
				}
				attrs := append(append(append([]string(nil), leafHierarchies[0].Attrs[:g]...), leafHierarchies[1].Attrs[:tm]...), leafHierarchies[2].Attrs[:p]...)
				out = append(out, attrs)
			}
		}
	}
	return out
}

// TestLeafLatticeMatchesRowScan: every lattice grouping the engine's data
// plane answers — from a cube, and gathered from two shards with and without
// theirs — holds the row scan's relation, group for group.
func TestLeafLatticeMatchesRowScan(t *testing.T) {
	ds := leafDataset(1)
	sources := map[string]ShardWorker{}
	for _, cfg := range []leafConfig{{"cube", true, 1, 1}, {"shards2-cube", true, 2, 2}, {"shards2-scan", false, 2, 1}} {
		sources[cfg.name] = leafEngine(t, ds, cfg).src
	}
	for _, attrs := range leafLattice() {
		for _, measure := range []string{"units", "cost"} {
			want := agg.GroupBy(ds, attrs, measure)
			for name, src := range sources {
				got, err := src.PartialGroupBy(attrs, measure)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("%s %v %s: not the row scan's relation", name, attrs, measure)
				}
			}
		}
	}
}
