package cube_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
)

// orderPaths draws the full-depth paths of one hierarchy: one to four roots,
// then one to four children per node, a quarter of the nodes with exactly one
// (single-child chains). A level's values are distinct, short and unrelated to
// their parents' — prefix pairs, multi-byte runes and the empty string among
// them — so neither a value's code nor its parent's string predicts its rank.
func orderPaths(rng *rand.Rand, depth int) [][]string {
	alphabet := []string{"", "a", "b", "ab", "é", "Z", "日"}
	paths := [][]string{nil}
	for l := 0; l < depth; l++ {
		used := map[string]bool{}
		var next [][]string
		for _, p := range paths {
			n := 1 + rng.Intn(4)
			if l > 0 && rng.Intn(4) == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				v := alphabet[rng.Intn(len(alphabet))] + fmt.Sprint(rng.Intn(40))
				for used[v] {
					v = alphabet[rng.Intn(len(alphabet))] + fmt.Sprint(rng.Intn(400))
				}
				used[v] = true
				next = append(next, append(slices.Clip(p), v))
			}
		}
		paths = next
	}
	return paths
}

// orderRows draws a dataset's rows over random hierarchies (one to three, of
// depth one to three): each row picks one path per hierarchy, rows come in
// random order (so dictionaries intern in it), and measures are integers, so
// every sum is exact in any order. With violate, one value of a hierarchy of
// depth two or more is moved under a second parent — a broken FD.
func orderRows(rng *rand.Rand, violate bool) ([]data.Hierarchy, []string, [][]string) {
	var hiers []data.Hierarchy
	var dims []string
	var trees [][][]string
	for h, nh := 0, 1+rng.Intn(3); h < nh; h++ {
		depth := 1 + rng.Intn(3)
		hier := data.Hierarchy{Name: fmt.Sprintf("h%d", h)}
		for l := 0; l < depth; l++ {
			hier.Attrs = append(hier.Attrs, fmt.Sprintf("h%d_%d", h, l))
		}
		hiers, dims = append(hiers, hier), append(dims, hier.Attrs...)
		trees = append(trees, orderPaths(rng, depth))
	}
	if violate {
		for h, paths := range trees {
			if l := len(hiers[h].Attrs) - 1; l > 0 && len(paths) > 1 {
				p, q := paths[0], paths[len(paths)-1]
				if !slices.Equal(p[:l], q[:l]) {
					q[l] = p[l]
					break
				}
			}
		}
	}
	n := 1 + rng.Intn(20)
	if rng.Intn(2) == 0 {
		n = 100 + rng.Intn(400)
	}
	rows := make([][]string, n)
	for i := range rows {
		for _, paths := range trees {
			rows[i] = append(rows[i], paths[rng.Intn(len(paths))]...)
		}
	}
	return hiers, dims, rows
}

// orderDataset appends rows to a fresh dataset; the measure of row i is i % 7.
func orderDataset(hiers []data.Hierarchy, dims []string, rows [][]string) *data.Dataset {
	ds := data.New("order", dims, []string{"m"}, hiers)
	for i, r := range rows {
		ds.AppendRowVals(r, []float64{float64(i % 7)})
	}
	return ds
}

// orderQueries lists, for every lattice point, its attributes in three orders:
// canonical (hierarchy by hierarchy), drill (one drilled hierarchy last, as the
// engine asks) and shuffled (any interleaving, levels out of order included).
func orderQueries(rng *rand.Rand, hiers []data.Hierarchy) [][]string {
	var out [][]string
	depths := make([]int, len(hiers))
	for {
		var canonical []string
		var drilled []int
		for h, d := range depths {
			canonical = append(canonical, hiers[h].Attrs[:d]...)
			if d > 0 {
				drilled = append(drilled, h)
			}
		}
		if len(canonical) > 0 {
			last := drilled[rng.Intn(len(drilled))]
			var drill []string
			for h, d := range depths {
				if h != last {
					drill = append(drill, hiers[h].Attrs[:d]...)
				}
			}
			drill = append(drill, hiers[last].Attrs[:depths[last]]...)
			shuffled := slices.Clone(canonical)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			out = append(out, canonical, drill, shuffled)
		}
		h := 0
		for ; h < len(hiers) && depths[h] == len(hiers[h].Attrs); h++ {
			depths[h] = 0
		}
		if h == len(hiers) {
			return out
		}
		depths[h]++
	}
}

// orderReference is the obviously-right group-by: string tuples keyed in a
// map, statistics accumulated in row order, then a comparison sort.
func orderReference(ds *data.Dataset, attrs []string) []agg.Group {
	index := map[string]int{}
	var groups []agg.Group
	for row, v := range ds.Measure("m") {
		vals := make([]string, len(attrs))
		for i, a := range attrs {
			dict, codes := ds.DimCodes(a)
			vals[i] = dict[codes[row]]
		}
		gi, ok := index[data.EncodeKey(vals)]
		if !ok {
			gi = len(groups)
			index[data.EncodeKey(vals)] = gi
			groups = append(groups, agg.Group{Vals: vals})
		}
		groups[gi].Stats = groups[gi].Stats.Add(agg.Stats{Count: 1, Sum: v, SumSq: v * v})
	}
	sort.Slice(groups, func(a, b int) bool { return slices.Compare(groups[a].Vals, groups[b].Vals) < 0 })
	return groups
}

// checkOrder holds a result to the reference: the same groups in the same
// order, statistics bit for bit, codes decoding to the values.
func checkOrder(t *testing.T, label string, got *agg.Result, want []agg.Group) {
	t.Helper()
	k := len(got.Attrs)
	if len(got.Groups) != len(want) || len(got.Codes) != k*len(want) {
		t.Fatalf("%s: %d groups, %d codes; want %d groups", label, len(got.Groups), len(got.Codes), len(want))
	}
	bits := math.Float64bits
	for gi, g := range got.Groups {
		w := want[gi]
		if !slices.Equal(g.Vals, w.Vals) || bits(g.Stats.Count) != bits(w.Stats.Count) ||
			bits(g.Stats.Sum) != bits(w.Stats.Sum) || bits(g.Stats.SumSq) != bits(w.Stats.SumSq) {
			t.Fatalf("%s: group %d = %q %+v, want %q %+v", label, gi, g.Vals, g.Stats, w.Vals, w.Stats)
		}
		for ai, v := range g.Vals {
			if got.Dicts[ai][got.Codes[gi*k+ai]] != v {
				t.Fatalf("%s: group %d attribute %d codes %q, value %q", label, gi, ai, got.Dicts[ai][got.Codes[gi*k+ai]], v)
			}
		}
	}
}

// TestGroupOrderMatchesStringReference holds the group order of every
// producer — the row scan, a built cube, a cube merged from a base and a delta
// over grown dictionaries, a cube over a row subset (dictionaries padded with
// values no row uses) and a cube over rows that break an FD — to the
// string-sorted reference, for every lattice point in canonical, drill and
// shuffled attribute order. Row counts are drawn so that the dictionaries'
// key space falls both within and beyond four times the groups.
func TestGroupOrderMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var within, beyond, broken int
	for trial := 0; trial < 80; trial++ {
		violate := trial%4 == 3
		hiers, dims, rows := orderRows(rng, violate)
		ds := orderDataset(hiers, dims, rows)
		built, err := cube.Build(ds)
		if err != nil {
			t.Fatal(err)
		}
		split := rng.Intn(len(rows))
		grown := orderDataset(hiers, dims, rows[:split])
		base, err := cube.Build(grown)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[split:] {
			grown.AppendRowVals(r, []float64{float64(grown.NumRows() % 7)})
		}
		delta, err := cube.BuildRows(grown, split, len(rows))
		if err != nil {
			t.Fatal(err)
		}
		merged, err := base.Merge(delta)
		if err != nil {
			t.Fatal(err)
		}
		root := hiers[0].Attrs[0]
		sub := ds.Where(data.Predicate{root: rows[0][0]})
		subCube, err := cube.Build(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, attrs := range orderQueries(rng, hiers) {
			label := fmt.Sprintf("trial %d (FD broken %v) %v", trial, violate, attrs)
			want := orderReference(ds, attrs)
			checkOrder(t, label+" scan", agg.GroupBy(ds, attrs, "m"), want)
			space := 1.0
			for _, a := range attrs {
				dict, _ := ds.DimCodes(a)
				space *= float64(len(dict))
			}
			if space <= 4*float64(len(want)) {
				within++
			} else {
				beyond++
			}
			for _, src := range []struct {
				name string
				c    *cube.Cube
				ds   *data.Dataset
			}{{"built", built, ds}, {"merged", merged, ds}, {"subset", subCube, sub}} {
				got, ok := src.c.GroupBy(attrs, "m")
				if !ok {
					t.Fatalf("%s: %s cube declined", label, src.name)
				}
				checkOrder(t, label+" "+src.name+" cube", got, orderReference(src.ds, attrs))
			}
		}
		if violate && ds.Validate() != nil {
			broken++
		}
	}
	t.Logf("%d queries with a key space within 4x the groups, %d beyond; %d datasets break an FD", within, beyond, broken)
	if within == 0 || beyond == 0 || broken == 0 {
		t.Fatalf("test premise: %d queries with a key space within 4x the groups, %d beyond; %d datasets break an FD",
			within, beyond, broken)
	}
}
