package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/datasets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_files.json from the current implementation")

const goldenPath = "testdata/golden_files.json"

// randomSurvey draws an FD-respecting dataset (village determines district
// determines region, month determines year) whose dictionaries fill in an
// order unrelated to their sorted order and whose row count (not a multiple
// of two) leaves every code payload needing alignment padding.
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

// latticeGroupings lists every grouping over hierarchy prefixes: one per
// lattice level, the empty one included.
func latticeGroupings(hiers []data.Hierarchy) [][]string {
	out := [][]string{nil}
	for _, h := range hiers {
		var next [][]string
		for _, g := range out {
			for d := 0; d <= len(h.Attrs); d++ {
				next = append(next, append(slices.Clip(g), h.Attrs[:d]...))
			}
		}
		out = next
	}
	return out
}

// sameBits reports whether two group-by results hold the same groups in the
// same order with the same statistics, bit for bit.
func sameBits(a, b *agg.Result) bool {
	if !a.Equal(b) || !slices.Equal(a.Codes, b.Codes) {
		return false
	}
	for i, g := range a.Stats {
		h := b.Stats[i]
		if math.Float64bits(g.Count) != math.Float64bits(h.Count) ||
			math.Float64bits(g.Sum) != math.Float64bits(h.Sum) ||
			math.Float64bits(g.SumSq) != math.Float64bits(h.SumSq) {
			return false
		}
	}
	return true
}

// checkCubeAnswers opens the .rst file at path eager and mapped and holds
// every shard's cube to cube.Build over that shard's rows: every lattice
// level's GroupBy for every measure (every hierarchy's paths among them) and
// the cell count, bit for bit.
func checkCubeAnswers(t *testing.T, label, path string) {
	t.Helper()
	for _, mapped := range []bool{false, true} {
		_, shards, err := OpenShardsFile(path, mapped)
		if err != nil {
			t.Fatalf("%s (mapped=%v): %v", label, mapped, err)
		}
		for si, s := range shards {
			got := s.Cube()
			if got == nil {
				t.Fatalf("%s (mapped=%v): shard %d opened without its cube", label, mapped, si)
			}
			rows, err := data.FromColumns(s.Name, s.Dims, s.Measures, append([]data.Hierarchy(nil), s.Hierarchies...))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cube.Build(rows)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumCells() != want.NumCells() {
				t.Errorf("%s (mapped=%v) shard %d: %d cells, built %d", label, mapped, si, got.NumCells(), want.NumCells())
			}
			for _, attrs := range latticeGroupings(s.Hierarchies) {
				for _, m := range rows.MeasureNames() {
					g, gok := got.GroupBy(attrs, m)
					w, wok := want.GroupBy(attrs, m)
					if gok != wok || (wok && !sameBits(g, w)) {
						t.Errorf("%s (mapped=%v) shard %d: GroupBy(%v, %s) differs from the built cube", label, mapped, si, attrs, m)
					}
				}
			}
		}
		for _, s := range shards {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGoldenFiles pins the bytes of every shape of the .rst layout — one
// shard with and without a cube section, 2 and 3 shards, 2 shards with a
// cube each — for each dataset the examples/ programs run on and one random
// survey. Every file is then re-opened from disk eagerly and memory-mapped
// and written again: a reader that decodes what the writer laid out must
// reproduce the file to the byte. A cube-carrying file's cubes must answer
// exactly as cube.Build over the same rows, opened either way. Work on the
// writers must leave every digest as recorded; regenerate with -update only
// for a change that is meant to move the bytes.
func TestGoldenFiles(t *testing.T) {
	got := map[string]string{}
	dir := t.TempDir()
	// pin records label's digest, then round-trips the bytes through a file:
	// opened either way, the shards write back to the same bytes. It returns
	// the file's path.
	pin := func(label string, file []byte) string {
		t.Helper()
		sum := sha256.Sum256(file)
		got[label] = hex.EncodeToString(sum[:])
		path := filepath.Join(dir, strings.ReplaceAll(label, "/", "_")+".rst")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{false, true} {
			key, shards, err := OpenShardsFile(path, mapped)
			if err != nil {
				t.Fatalf("%s (mapped=%v): %v", label, mapped, err)
			}
			var again bytes.Buffer
			if err := WriteSharded(&again, key, shards); err != nil {
				t.Fatalf("%s (mapped=%v): rewriting: %v", label, mapped, err)
			}
			if !bytes.Equal(again.Bytes(), file) {
				t.Errorf("%s (mapped=%v): re-opened file writes back to different bytes", label, mapped)
			}
			for _, s := range shards {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
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
		{"survey", randomSurvey(22, 2501)},
	} {
		var buf bytes.Buffer
		snap := FromDataset(tc.ds)
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		pin(tc.name+"/plain", buf.Bytes())

		buf.Reset()
		if err := snap.BuildCube(); err != nil {
			t.Fatal(err)
		}
		if snap.Cube() == nil {
			t.Fatalf("%s: no cube built", tc.name)
		}
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		checkCubeAnswers(t, tc.name, pin(tc.name+"/cube", buf.Bytes()))

		key := tc.ds.Hierarchies[0].Attrs[0]
		for _, n := range []int{2, 3} {
			buf.Reset()
			if err := WriteSharded(&buf, key, splitShards(t, tc.ds, n)); err != nil {
				t.Fatal(err)
			}
			pin(fmt.Sprintf("%s/shards=%d", tc.name, n), buf.Bytes())
		}
		cubed := splitShards(t, tc.ds, 2)
		for _, s := range cubed {
			if err := s.BuildCube(); err != nil || s.Cube() == nil {
				t.Fatalf("%s: no shard cube built: %v", tc.name, err)
			}
		}
		buf.Reset()
		if err := WriteSharded(&buf, key, cubed); err != nil {
			t.Fatal(err)
		}
		checkCubeAnswers(t, tc.name+" shards", pin(tc.name+"/shards=2+cube", buf.Bytes()))
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
