package factor

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/data"
)

// paperSources builds the running example from Figure 3: a Time hierarchy
// with attribute T = {t1, t2} and a Geo hierarchy District → Village with
// d1 → {v1, v2} and d2 → {v3}.
func paperSources(t *testing.T) []*Source {
	t.Helper()
	timeSrc, err := NewSource("time", []string{"T"}, [][]string{{"t1"}, {"t2"}})
	if err != nil {
		t.Fatal(err)
	}
	geoSrc, err := NewSource("geo", []string{"D", "V"}, [][]string{
		{"d1", "v1"}, {"d1", "v2"}, {"d2", "v3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*Source{timeSrc, geoSrc}
}

func paperFactorizer(t *testing.T) *Factorizer {
	t.Helper()
	f, err := New(paperSources(t), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource("h", nil, nil); err == nil {
		t.Error("expected error for empty attrs")
	}
	if _, err := NewSource("h", []string{"a", "b"}, [][]string{{"x"}}); err == nil {
		t.Error("expected error for arity mismatch")
	}
	// Same leaf under two parents violates the FD.
	if _, err := NewSource("h", []string{"a", "b"}, [][]string{{"p1", "c"}, {"p2", "c"}}); err == nil {
		t.Error("expected FD violation error")
	}
	// The same, its two parents apart in path order.
	if _, err := NewSource("h", []string{"a", "b"}, [][]string{{"p1", "c"}, {"p2", "x"}, {"p3", "c"}}); err == nil {
		t.Error("expected FD violation error for parents apart in path order")
	}
	// Mid-level FD violation with distinct leaves.
	if _, err := NewSource("h", []string{"a", "b", "c"}, [][]string{
		{"p1", "m", "l1"}, {"p2", "m", "l2"},
	}); err == nil {
		t.Error("expected mid-level FD violation error")
	}
	// Duplicate paths are deduplicated, not an error.
	src, err := NewSource("h", []string{"a"}, [][]string{{"x"}, {"x"}, {"y"}})
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 2 {
		t.Errorf("dedup paths = %d, want 2", src.Len())
	}
}

// levelVals decodes a level's values, Dict[Codes[i]].
func levelVals(lv Level) []string {
	vals := make([]string, len(lv.Codes))
	for i, c := range lv.Codes {
		vals[i] = lv.Dict[c]
	}
	return vals
}

func TestBuildChainStructure(t *testing.T) {
	srcs := paperSources(t)
	ch, err := BuildChain(srcs[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Depth() != 2 || ch.Leaves() != 3 {
		t.Fatalf("depth %d leaves %d", ch.Depth(), ch.Leaves())
	}
	if got := levelVals(ch.Levels[0]); len(got) != 2 || got[0] != "d1" || got[1] != "d2" {
		t.Errorf("district level = %v", got)
	}
	if got := levelVals(ch.Levels[1]); len(got) != 3 || got[0] != "v1" || got[2] != "v3" {
		t.Errorf("village level = %v", got)
	}
	// Ext: d1 has 2 villages, d2 has 1.
	if ch.Levels[0].Ext[0] != 2 || ch.Levels[0].Ext[1] != 1 {
		t.Errorf("Ext = %v", ch.Levels[0].Ext)
	}
	// ChildOff: d1 children [0,2), d2 children [2,3).
	if off := ch.Levels[0].ChildOff; off[0] != 0 || off[1] != 2 || off[2] != 3 {
		t.Errorf("ChildOff = %v", off)
	}
	// Ancestors: leaf v3 (idx 2) at level 0 is d2 (idx 1).
	if ch.AncestorIdx(0, 2) != 1 {
		t.Errorf("AncestorIdx(0, v3) = %d", ch.AncestorIdx(0, 2))
	}
	// Index maps each village's code back to its position.
	for i, c := range ch.Levels[1].Codes {
		if ch.Levels[1].Index[c] != int32(i) {
			t.Errorf("village %d: code %d indexes %d, names %q", i, c, ch.Levels[1].Index[c], ch.Levels[1].Dict[c])
		}
	}
	// Truncated chain: depth 1 keeps only districts.
	ch1, err := BuildChain(srcs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch1.Leaves() != 2 {
		t.Errorf("depth-1 leaves = %d, want 2", ch1.Leaves())
	}
	if _, err := BuildChain(srcs[1], 3); err == nil {
		t.Error("expected depth out of range error")
	}
}

func TestSourceFromDataset(t *testing.T) {
	d := data.New("x", []string{"D", "V"}, []string{"m"}, nil)
	d.AppendRowVals([]string{"d1", "v1"}, []float64{1})
	d.AppendRowVals([]string{"d1", "v1"}, []float64{2})
	d.AppendRowVals([]string{"d2", "v3"}, []float64{3})
	src, err := SourceFromDataset(d, data.Hierarchy{Name: "geo", Attrs: []string{"D", "V"}})
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 2 {
		t.Errorf("paths = %d, want 2", src.Len())
	}
}

func TestFactorizerScalars(t *testing.T) {
	f := paperFactorizer(t)
	if f.N() != 6 { // 2 times × 3 villages
		t.Fatalf("N = %v, want 6", f.N())
	}
	if f.NumAttrs() != 3 {
		t.Fatalf("attrs = %v", f.Attrs())
	}
	// Paper Figure 4: TOTAL_T = 6, TOTAL_D = TOTAL_V = 3.
	if f.SufTotal(0) != 6 || f.SufTotal(1) != 3 || f.SufTotal(2) != 3 {
		t.Errorf("SufTotal = %v %v %v", f.SufTotal(0), f.SufTotal(1), f.SufTotal(2))
	}
	// COUNT_T = {t1: 3, t2: 3}; COUNT_D = {d1: 2, d2: 1}; COUNT_V = 1 each.
	ct := f.CountVals(0)
	if ct[0] != 3 || ct[1] != 3 {
		t.Errorf("COUNT_T = %v", ct)
	}
	cd := f.CountVals(1)
	if cd[0] != 2 || cd[1] != 1 {
		t.Errorf("COUNT_D = %v", cd)
	}
	cv := f.CountVals(2)
	if cv[0] != 1 || cv[1] != 1 || cv[2] != 1 {
		t.Errorf("COUNT_V = %v", cv)
	}
}

func TestCofSameHierarchy(t *testing.T) {
	f := paperFactorizer(t)
	// COF_{D,V}: each (district, village) pair has count 1 (nothing right of
	// the geo hierarchy).
	got := map[[2]int]float64{}
	f.Cof(1, 2, func(vi, vj int, c float64) { got[[2]int{vi, vj}] = c })
	want := map[[2]int]float64{{0, 0}: 1, {0, 1}: 1, {1, 2}: 1}
	if len(got) != len(want) {
		t.Fatalf("COF_{D,V} = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("COF_{D,V}[%v] = %v, want %v", k, got[k], v)
		}
	}
}

func TestCofCrossHierarchy(t *testing.T) {
	f := paperFactorizer(t)
	// COF_{T,D}[t,d] = #villages(d): 2 for d1, 1 for d2.
	got := map[[2]int]float64{}
	f.Cof(0, 1, func(vi, vj int, c float64) { got[[2]int{vi, vj}] = c })
	for ti := 0; ti < 2; ti++ {
		if got[[2]int{ti, 0}] != 2 || got[[2]int{ti, 1}] != 1 {
			t.Errorf("COF_{T,D} for t%d = %v, %v", ti+1, got[[2]int{ti, 0}], got[[2]int{ti, 1}])
		}
	}
}

// rowValues enumerates every row's attribute value indices from the row
// iterator (exponential in the number of hierarchies: a test reference).
func rowValues(f *Factorizer) [][]int {
	var out [][]int
	for it := f.Rows(); it.Next() != nil; {
		out = append(out, slices.Clone(it.Cur()))
	}
	return out
}

func TestRowIterMaterialize(t *testing.T) {
	f := paperFactorizer(t)
	rows := rowValues(f)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	// Expected order (T, D, V) with Geo varying fastest:
	want := [][]int{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 2},
		{1, 0, 0}, {1, 0, 1}, {1, 1, 2},
	}
	for i, w := range want {
		for j := range w {
			if rows[i][j] != w[j] {
				t.Fatalf("row %d = %v, want %v", i, rows[i], w)
			}
		}
	}
}

func TestRowIterChangesAreMinimal(t *testing.T) {
	f := paperFactorizer(t)
	it := f.Rows()
	first := it.Next()
	if len(first) != 3 {
		t.Fatalf("first emit = %v", first)
	}
	// Second row: only V changes (v1 → v2 under the same district).
	second := it.Next()
	if len(second) != 1 || second[0].Attr != 2 || second[0].Val != 1 {
		t.Fatalf("second emit = %v", second)
	}
	// Third row: D and V change.
	third := it.Next()
	if len(third) != 2 {
		t.Fatalf("third emit = %v", third)
	}
	// Fourth row: T changes and Geo wraps to the first village (D and V).
	fourth := it.Next()
	if len(fourth) != 3 {
		t.Fatalf("fourth emit = %v", fourth)
	}
}

// Brute-force reference: enumerate the cross product of paths and count.
func bruteCounts(f *Factorizer) (sufTotals []float64, counts []map[int]float64, cofs map[[2]int]map[[2]int]float64) {
	rows := rowValues(f)
	d := f.NumAttrs()
	sufTotals = make([]float64, d)
	counts = make([]map[int]float64, d)
	cofs = map[[2]int]map[[2]int]float64{}
	for i := 0; i < d; i++ {
		counts[i] = map[int]float64{}
	}
	// Multiplicity in the suffix join equals the full-matrix multiplicity
	// divided by the prefix duplication factor n/SufTotal(i).
	for i := 0; i < d; i++ {
		for _, r := range rows {
			counts[i][r[i]]++
		}
		dup := f.N() / f.SufTotal(i)
		for k := range counts[i] {
			counts[i][k] /= dup
		}
		sufTotals[i] = f.SufTotal(i)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			m := map[[2]int]float64{}
			for _, r := range rows {
				m[[2]int{r[i], r[j]}]++
			}
			dup := f.N() / f.SufTotal(i)
			for k := range m {
				m[k] /= dup
			}
			cofs[[2]int{i, j}] = m
		}
	}
	return sufTotals, counts, cofs
}

func randomFactorizer(r *rand.Rand) *Factorizer {
	nh := 1 + r.Intn(3)
	srcs := make([]*Source, nh)
	for h := 0; h < nh; h++ {
		depth := 1 + r.Intn(3)
		attrs := make([]string, depth)
		for l := range attrs {
			attrs[l] = fmt.Sprintf("h%d_a%d", h, l)
		}
		// Random tree: level 0 has 1..3 values; each value has 1..3 children.
		var paths [][]string
		var build func(prefix []string, level int)
		id := 0
		build = func(prefix []string, level int) {
			if level == depth {
				paths = append(paths, append([]string(nil), prefix...))
				return
			}
			kids := 1 + r.Intn(3)
			for k := 0; k < kids; k++ {
				id++
				build(append(prefix, fmt.Sprintf("h%d_l%d_%d", h, level, id)), level+1)
			}
		}
		build(nil, 0)
		src, err := NewSource(fmt.Sprintf("h%d", h), attrs, paths)
		if err != nil {
			panic(err)
		}
		srcs[h] = src
	}
	depths := make([]int, nh)
	for h := range depths {
		depths[h] = 1 + r.Intn(len(srcs[h].Attrs))
	}
	f, err := New(srcs, depths)
	if err != nil {
		panic(err)
	}
	return f
}

// Property: decomposed aggregates match brute-force enumeration of the
// materialized cross product for random hierarchy forests.
func TestAggregatesMatchBruteForceProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		f := randomFactorizer(r)
		if f.N() > 5000 {
			continue
		}
		_, wantCounts, wantCofs := bruteCounts(f)
		for i := 0; i < f.NumAttrs(); i++ {
			got := f.CountVals(i)
			for v, c := range got {
				if wantCounts[i][v] != c {
					t.Fatalf("trial %d: COUNT[%d][%d] = %v, want %v", trial, i, v, c, wantCounts[i][v])
				}
			}
		}
		for i := 0; i < f.NumAttrs(); i++ {
			for j := i + 1; j < f.NumAttrs(); j++ {
				got := map[[2]int]float64{}
				f.Cof(i, j, func(vi, vj int, c float64) { got[[2]int{vi, vj}] += c })
				want := wantCofs[[2]int{i, j}]
				if len(got) != len(want) {
					t.Fatalf("trial %d: COF(%d,%d) size %d, want %d", trial, i, j, len(got), len(want))
				}
				for k, v := range want {
					if g := got[k]; g < v-1e-9 || g > v+1e-9 {
						t.Fatalf("trial %d: COF(%d,%d)[%v] = %v, want %v", trial, i, j, k, g, v)
					}
				}
			}
		}
	}
}

func TestRowIndexOfAndLeafIndex(t *testing.T) {
	f := paperFactorizer(t)
	if got := f.RowIndexOf([]int{1, 2}); got != 5 {
		t.Errorf("RowIndexOf = %d, want 5", got)
	}
	if got := f.LeafIndex(1, "v3"); got != 2 {
		t.Errorf("LeafIndex = %d, want 2", got)
	}
	if got := f.LeafIndex(1, "nope"); got != -1 {
		t.Errorf("LeafIndex missing = %d, want -1", got)
	}
}

// TestLeafIndexSharedSource calls LeafIndex from several goroutines at once
// on two factorizers whose chains cut one source at different depths: the
// source's string index is built once, under its sync.Once, and serves both.
func TestLeafIndexSharedSource(t *testing.T) {
	srcs := paperSources(t)
	deep, err := New(srcs, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := New(srcs, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := deep.LeafIndex(1, "v3"); got != 2 {
				t.Errorf("depth 2: LeafIndex(v3) = %d, want 2", got)
			}
			if got := cut.LeafIndex(1, "d2"); got != 1 {
				t.Errorf("depth 1: LeafIndex(d2) = %d, want 1", got)
			}
			if got := cut.LeafIndex(1, "v3"); got != -1 {
				t.Errorf("depth 1: LeafIndex(v3) = %d, want -1", got)
			}
		}()
	}
	wg.Wait()
}
