package cube_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/datasets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cubes.json from the current implementation")

const goldenPath = "testdata/golden_cubes.json"

// randomSurvey draws an FD-respecting dataset (village determines district
// determines region, month determines year) whose dictionaries fill in an
// order unrelated to their sorted order and whose measures are non-integers,
// so every cell's sums depend on the order its rows are added in.
func randomSurvey(seed int64, rows int) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "district", "village"}},
		{Name: "time", Attrs: []string{"year", "month"}},
		{Name: "kind", Attrs: []string{"kind"}},
	}
	ds := data.New("survey", []string{"region", "district", "village", "year", "month", "kind"}, []string{"x", "y"}, h)
	for i := 0; i < rows; i++ {
		v, m := rng.Intn(60), rng.Intn(30)
		ds.AppendRowVals([]string{
			fmt.Sprintf("r%d", v%4), fmt.Sprintf("d%02d", v%12), fmt.Sprintf("v%02d", v),
			fmt.Sprintf("y%d", m%3), fmt.Sprintf("m%02d", m), fmt.Sprintf("k%d", rng.Intn(3)),
		}, []float64{rng.NormFloat64(), 100 * rng.ExpFloat64()})
	}
	return ds
}

// reappended copies rows [0, n) of ds into a fresh dataset, so that its
// dictionaries hold exactly the values those rows use, in first-appearance
// order — a prefix of the dictionaries the same copy of more rows has.
func reappended(ds *data.Dataset, n int) *data.Dataset {
	dims, measures := ds.DimNames(), ds.MeasureNames()
	out := data.New(ds.Name, dims, measures, ds.Hierarchies)
	dcols, mcols := make([][]string, len(dims)), make([][]float64, len(measures))
	for i, a := range dims {
		dcols[i] = ds.Dim(a)
	}
	for i, m := range measures {
		mcols[i] = ds.Measure(m)
	}
	dv, mv := make([]string, len(dims)), make([]float64, len(measures))
	for row := 0; row < n; row++ {
		for i := range dcols {
			dv[i] = dcols[i][row]
		}
		for i := range mcols {
			mv[i] = mcols[i][row]
		}
		out.AppendRowVals(dv, mv)
	}
	return out
}

// TestGoldenCubes pins the bytes of a built cube — level order, cell order,
// every key, count and math.Float64bits of every sum, as EncodeV1 lays
// them out — for each dataset the examples/ programs run on and one random
// survey with non-integer measures: of Build over all rows, of the BuildRows
// delta over the last fifth of them, and of that delta merged into the cube of
// the rows before it (whose dictionaries are shorter, so the merge re-keys).
// Work on the build must leave every digest as recorded; regenerate with
// -update only for a change that is meant to move the bytes.
func TestGoldenCubes(t *testing.T) {
	got := map[string]string{}
	digest := func(label string, c *cube.Cube, err error) *cube.Cube {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sum := sha256.Sum256(cube.EncodeV1(c))
		got[label] = hex.EncodeToString(sum[:])
		return c
	}
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
	}{
		{"quickstart", quickstartDataset()},
		{"drought", datasets.GenerateFIST(11).DS},
		{"covid", datasets.GenerateCovidUS(3)},
		{"vote", datasets.GenerateVote(9).DS},
		{"absentee", datasets.GenerateAbsentee(5, 3000)},
		{"survey", randomSurvey(22, 2500)},
	} {
		n := tc.ds.NumRows()
		lo := n - n/5
		full, base := reappended(tc.ds, n), reappended(tc.ds, lo)
		c, err := cube.Build(full)
		digest(tc.name+"/build", c, err)
		c, err = cube.BuildRows(full, lo, n)
		delta := digest(tc.name+"/delta", c, err)
		c, err = cube.Build(base)
		before := digest(tc.name+"/base", c, err)
		c, err = before.Merge(delta)
		digest(tc.name+"/merged", c, err)
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases computed, %d recorded", len(got), len(want))
	}
	for label, w := range want {
		if g := got[label]; g != w {
			t.Errorf("%s: digest %q, recorded %q", label, g, w)
		}
	}
}
