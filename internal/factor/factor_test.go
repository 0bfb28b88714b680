package factor

import (
	"fmt"
	"math/rand"
	"slices"
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
	if len(src.Paths) != 2 {
		t.Errorf("dedup paths = %d, want 2", len(src.Paths))
	}
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
	if got := ch.Levels[0].Vals; len(got) != 2 || got[0] != "d1" || got[1] != "d2" {
		t.Errorf("district level = %v", got)
	}
	if got := ch.Levels[1].Vals; len(got) != 3 || got[0] != "v1" || got[2] != "v3" {
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
	if ch.ValueIndex(1, "v2") != 1 || ch.ValueIndex(1, "nope") != -1 {
		t.Error("ValueIndex wrong")
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
	d := data.New("x", []string{"D", "V"}, nil, nil)
	d.AppendRowVals([]string{"d1", "v1"}, nil)
	d.AppendRowVals([]string{"d1", "v1"}, nil)
	d.AppendRowVals([]string{"d2", "v3"}, nil)
	src, err := SourceFromDataset(d, data.Hierarchy{Name: "geo", Attrs: []string{"D", "V"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Paths) != 2 {
		t.Errorf("paths = %v", src.Paths)
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
	_, ct := f.CountVals(0)
	if ct[0] != 3 || ct[1] != 3 {
		t.Errorf("COUNT_T = %v", ct)
	}
	_, cd := f.CountVals(1)
	if cd[0] != 2 || cd[1] != 1 {
		t.Errorf("COUNT_D = %v", cd)
	}
	_, cv := f.CountVals(2)
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
			_, got := f.CountVals(i)
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

func TestDrillDownMovesHierarchyLast(t *testing.T) {
	f := paperFactorizer(t)
	// Start over at depth 1 for geo.
	f2, err := New(paperSources(t), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if f2.N() != 4 { // 2 times × 2 districts
		t.Fatalf("N = %v, want 4", f2.N())
	}
	pos, ok := f2.OrderPos("geo")
	if !ok {
		t.Fatal("geo not found")
	}
	if !f2.CanDrill(pos) {
		t.Fatal("geo should be drillable")
	}
	if err := f2.DrillDown(pos); err != nil {
		t.Fatal(err)
	}
	if f2.N() != 6 {
		t.Errorf("after drill N = %v, want 6", f2.N())
	}
	// Geo must now be last in order.
	if f2.HierarchyName(f2.NumHierarchies()-1) != "geo" {
		t.Error("drilled hierarchy not last")
	}
	// Aggregates must equal the fully rebuilt factorizer's.
	for i := 0; i < f2.NumAttrs(); i++ {
		// f (built fresh at same depths with same order) serves as reference.
		if f2.SufTotal(i) != f.SufTotal(i) {
			t.Errorf("SufTotal(%d) = %v, want %v", i, f2.SufTotal(i), f.SufTotal(i))
		}
	}
	// Fully drilled → CanDrill false, DrillDown errors.
	if f2.CanDrill(f2.NumHierarchies() - 1) {
		t.Error("geo should be fully drilled")
	}
	if err := f2.DrillDown(f2.NumHierarchies() - 1); err == nil {
		t.Error("expected error drilling a fully drilled hierarchy")
	}
}

// Property: Dynamic and CacheDynamic drill-downs produce identical aggregates
// to a Static rebuild.
func TestDrillModesAgreeProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		base := randomFactorizer(r)
		// Only exercise drillable configurations.
		var drillable []int
		for pos := 0; pos < base.NumHierarchies(); pos++ {
			if base.CanDrill(pos) {
				drillable = append(drillable, pos)
			}
		}
		if len(drillable) == 0 {
			continue
		}
		pos := drillable[r.Intn(len(drillable))]
		variants := make([]*Factorizer, 3)
		for mi, mode := range []DrillMode{Static, Dynamic, CacheDynamic} {
			v := base.Clone()
			v.SetMode(mode)
			if err := v.DrillDown(pos); err != nil {
				t.Fatal(err)
			}
			variants[mi] = v
		}
		for _, v := range variants[1:] {
			if v.N() != variants[0].N() || v.NumAttrs() != variants[0].NumAttrs() {
				t.Fatalf("trial %d: shape mismatch across modes", trial)
			}
			for i := 0; i < v.NumAttrs(); i++ {
				if v.SufTotal(i) != variants[0].SufTotal(i) {
					t.Fatalf("trial %d: SufTotal(%d) differs across modes", trial, i)
				}
				_, a := v.CountVals(i)
				_, b := variants[0].CountVals(i)
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("trial %d: COUNT(%d) differs across modes", trial, i)
					}
				}
			}
		}
	}
}

func TestComputeAggregatesSharedVsSerial(t *testing.T) {
	f := paperFactorizer(t)
	shared := f.ComputeAggregates()
	serial := f.ComputeAggregatesSerial()
	for i := range shared.SufTotal {
		if shared.SufTotal[i] != serial.SufTotal[i] {
			t.Errorf("SufTotal[%d]: shared %v serial %v", i, shared.SufTotal[i], serial.SufTotal[i])
		}
		for v := range shared.Counts[i] {
			if shared.Counts[i][v] != serial.Counts[i][v] {
				t.Errorf("Counts[%d][%d] differ", i, v)
			}
		}
	}
	for k, v := range shared.CofChecksums {
		if s := serial.CofChecksums[k]; s < v-1e-9 || s > v+1e-9 {
			t.Errorf("CofChecksum[%v]: shared %v serial %v", k, v, s)
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

func TestDrillModeString(t *testing.T) {
	if Static.String() != "Static" || Dynamic.String() != "Dynamic" || CacheDynamic.String() != "Cache+Dynamic" {
		t.Error("DrillMode strings wrong")
	}
	if DrillMode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}
