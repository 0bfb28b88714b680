package feature

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/mat"
)

// referenceCols is the obviously-right feature build Build is checked
// against: string-keyed buckets, mat.Median over a copy of each.
func referenceCols(groups *agg.Result, spec Spec) []Col {
	y := make([]float64, len(groups.Groups))
	for i, g := range groups.Groups {
		y[i] = g.Stats.Get(spec.Target)
	}
	cols := []Col{{Name: "intercept", Attr: groups.Attrs[0], Default: 1, InZ: true}}
	for ai, attr := range groups.Attrs {
		perVal := map[string][]float64{}
		for gi, g := range groups.Groups {
			perVal[g.Vals[ai]] = append(perVal[g.Vals[ai]], y[gi])
		}
		m, oneToOne := map[string]float64{}, true
		for v, ys := range perVal {
			m[v] = mat.Median(ys)
			oneToOne = oneToOne && len(ys) == 1
		}
		if oneToOne && !spec.KeepLeaky {
			continue
		}
		cols = append(cols, Col{Name: "main:" + attr, Attr: attr, Map: m, Default: mat.Median(y),
			InZ: !slices.Contains(spec.ExcludeFromZ, "main:"+attr)})
	}
	for _, aux := range spec.Aux {
		if slices.Contains(groups.Attrs, aux.JoinAttr) {
			col, _ := buildAuxCol(aux)
			col.InZ = !slices.Contains(spec.ExcludeFromZ, col.Name)
			cols = append(cols, col)
		}
	}
	for _, c := range spec.Custom {
		ai := slices.Index(groups.Attrs, c.Attr)
		if ai < 0 {
			continue
		}
		var vals []string
		for _, g := range groups.Groups {
			if !slices.Contains(vals, g.Vals[ai]) {
				vals = append(vals, g.Vals[ai])
			}
		}
		sort.Strings(vals)
		cols = append(cols, Col{Name: "custom:" + c.Name, Attr: c.Attr, Map: c.Fn(vals, groups),
			InZ: !slices.Contains(spec.ExcludeFromZ, "custom:"+c.Name)})
	}
	return cols
}

// propertyValues holds prefix pairs and multi-byte strings, in an order that
// is not the sorted one.
var propertyValues = []string{"b", "ab", "a", "é", "aé", "", "zz", "z", "日本", "日"}

// randomGroups draws a group-by result over attributes a, b and u (u is a
// function of (a, b), so it maps one-to-one to groups whenever a and b are
// both grouped on). Half the draws aggregate a random dataset — sometimes a
// Where subset, which keeps its source's dictionaries — and half assemble
// hand-made statistics, so the modeled y holds duplicates, ±0 and ±Inf.
func randomGroups(rng *rand.Rand) *agg.Result {
	attrs := [][]string{{"a"}, {"a", "b"}, {"b", "a"}, {"a", "b", "u"}, {"u"}, {"u", "a"}}[rng.Intn(6)]
	na, nb := 1+rng.Intn(len(propertyValues)), 1+rng.Intn(len(propertyValues))
	draw := func() map[string]string {
		a, b := propertyValues[rng.Intn(na)], propertyValues[rng.Intn(nb)]
		return map[string]string{"a": a, "b": b, "u": a + "/" + b}
	}
	if rng.Intn(2) == 0 {
		d := data.New("rand", []string{"a", "b", "u"}, []string{"m"}, nil)
		for i, n := 0, 1+rng.Intn(60); i < n; i++ {
			v := draw()
			d.AppendRowVals([]string{v["a"], v["b"], v["u"]}, []float64{float64(rng.Intn(4))})
		}
		if sub := d.Where(data.Predicate{"a": propertyValues[rng.Intn(na)]}); sub.NumRows() > 0 && rng.Intn(2) == 0 {
			d = sub
		}
		return agg.GroupBy(d, attrs, "m")
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -2.5, 7}
	seen := map[string]bool{}
	var groups []agg.Group
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		v := draw()
		vals := make([]string, len(attrs))
		for ai, a := range attrs {
			vals[ai] = v[a]
		}
		if key := fmt.Sprintf("%q", vals); !seen[key] {
			seen[key] = true
			groups = append(groups, agg.Group{Vals: vals, Stats: agg.Stats{Count: 1, Sum: special[rng.Intn(len(special))]}})
		}
	}
	return agg.NewResult(attrs, "m", groups)
}

// TestBuildMatchesStringReference pins Build's columns — names, defaults, Z
// membership and every map entry, bit for bit — and the dense rendering and
// cluster boundaries derived from them against the string-keyed reference.
func TestBuildMatchesStringReference(t *testing.T) {
	auxTable := data.New("aux", []string{"a"}, []string{"x"}, nil)
	for i, v := range propertyValues {
		auxTable.AppendRowVals([]string{v}, []float64{float64(i * i)})
		auxTable.AppendRowVals([]string{v}, []float64{float64(i % 3)})
	}
	custom := Custom{Name: "pos", Attr: "b", Fn: func(vals []string, groups *agg.Result) map[string]float64 {
		m := map[string]float64{}
		for i, v := range vals {
			m[v] = float64(i) + 0.5*float64(len(vals)) + float64(len(groups.Groups))
		}
		return m
	}}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		groups := randomGroups(rng)
		spec := Spec{
			Target:    []agg.Func{agg.Sum, agg.Mean, agg.Count}[rng.Intn(3)],
			KeepLeaky: rng.Intn(2) == 0,
			Aux:       []Aux{{Name: "x", Table: auxTable, JoinAttr: "a", Measure: "x"}},
			Custom:    []Custom{custom},
		}
		for _, name := range []string{"main:a", "main:u", "aux:x", "custom:pos"} {
			if rng.Intn(3) == 0 {
				spec.ExcludeFromZ = append(spec.ExcludeFromZ, name)
			}
		}
		checkBuild(t, fmt.Sprintf("trial %d", trial), groups, spec)
	}
}

// checkBuild holds Build's columns — names, defaults, Z membership and every
// map entry, bit for bit — and the dense rendering and cluster boundaries
// derived from them to the string-keyed reference.
func checkBuild(t *testing.T, label string, groups *agg.Result, spec Spec) {
	t.Helper()
	bits := math.Float64bits
	set, err := Build(groups, spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := referenceCols(groups, spec)
	if len(set.Cols) != len(want) {
		t.Fatalf("%s (%v): %d columns, want %d", label, groups.Attrs, len(set.Cols), len(want))
	}
	for ci, w := range want {
		g := set.Cols[ci]
		if g.Name != w.Name || g.Attr != w.Attr || g.InZ != w.InZ || bits(g.Default) != bits(w.Default) ||
			len(g.Map) != len(w.Map) || (g.Map == nil) != (w.Map == nil) {
			t.Fatalf("%s col %d: got %+v, want %+v", label, ci, g, w)
		}
		for v, f := range w.Map {
			if gf, ok := g.Map[v]; !ok || bits(gf) != bits(f) {
				t.Fatalf("%s col %s value %q: got %v (%#x, present %v), want %v (%#x)", label, w.Name, v, gf, bits(gf), ok, f, bits(f))
			}
		}
	}
	x := set.DenseX(groups)
	var starts []int
	for gi, g := range groups.Groups {
		for ci, c := range want {
			if f := c.Value(g.Vals[slices.Index(groups.Attrs, c.Attr)]); bits(x.At(gi, ci)) != bits(f) {
				t.Fatalf("%s: DenseX[%d,%s] = %v, want %v", label, gi, c.Name, x.At(gi, ci), f)
			}
		}
		last := len(g.Vals) - 1
		if gi == 0 || !slices.Equal(g.Vals[:last], groups.Groups[gi-1].Vals[:last]) {
			starts = append(starts, gi)
		}
	}
	if got := ClusterStarts(groups); !slices.Equal(got, starts) {
		t.Fatalf("%s: ClusterStarts = %v, want %v", label, got, starts)
	}
}

// TestBuildDegenerateTargetsMatchReference holds the main effects to the
// reference (mat.Median over each value's groups, in group order) where the
// modeled statistic is degenerate: NaNs of several payloads and both signs,
// +0 and −0 mixed, ±Inf, heavy ties, and well-spread values for contrast —
// over buckets of one, two, odd and even sizes. Medians are compared by bits.
func TestBuildDegenerateTargetsMatchReference(t *testing.T) {
	nan := func(b uint64) float64 { return math.Float64frombits(b) }
	negZero := math.Copysign(0, -1)
	pools := []struct {
		name string
		ys   []float64
	}{
		{"nan payloads", []float64{nan(0x7ff8000000000001), nan(0xfff8000000000dea), nan(0x7ff0000000000003), math.NaN(), 1, -3, 2.5, 2.5}},
		{"signed zeros", []float64{0, negZero, negZero, 0, 1, -1}},
		{"only zeros", []float64{0, negZero}},
		{"infinities", []float64{math.Inf(1), math.Inf(-1), 4, 4, -4, 0}},
		{"ties", []float64{3, 3, 3, 7, -1}},
		{"spread", nil},
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 600; trial++ {
		pool := pools[trial%len(pools)]
		attrs := [][]string{{"a"}, {"a", "b"}, {"b", "a"}, {"a", "b", "u"}, {"u", "b"}}[rng.Intn(5)]
		na, nb := 1+rng.Intn(len(propertyValues)), 1+rng.Intn(len(propertyValues))
		seen := map[string]bool{}
		var groups []agg.Group
		for i, n := 0, 1+rng.Intn(80); i < n; i++ {
			a, b := propertyValues[rng.Intn(na)], propertyValues[rng.Intn(nb)]
			v := map[string]string{"a": a, "b": b, "u": a + "/" + b}
			vals := make([]string, len(attrs))
			for ai, attr := range attrs {
				vals[ai] = v[attr]
			}
			if key := fmt.Sprintf("%q", vals); !seen[key] {
				seen[key] = true
				y := rng.NormFloat64()
				if pool.ys != nil {
					y = pool.ys[rng.Intn(len(pool.ys))]
				}
				groups = append(groups, agg.Group{Vals: vals, Stats: agg.Stats{Count: 1, Sum: y}})
			}
		}
		spec := Spec{Target: []agg.Func{agg.Sum, agg.Mean}[rng.Intn(2)], KeepLeaky: rng.Intn(2) == 0}
		checkBuild(t, fmt.Sprintf("trial %d (%s)", trial, pool.name), agg.NewResult(attrs, "m", groups), spec)
	}
	// Full crosses: 99 × 101 groups, every bucket and the whole of odd size,
	// and 100 × 100, all of even size.
	for _, pool := range pools {
		for _, side := range [][2]int{{99, 101}, {100, 100}} {
			var groups []agg.Group
			for i := 0; i < side[0]*side[1]; i++ {
				y := rng.NormFloat64()
				if pool.ys != nil {
					y = pool.ys[rng.Intn(len(pool.ys))]
				}
				groups = append(groups, agg.Group{Vals: []string{fmt.Sprint(i / side[1]), fmt.Sprint(i % side[1])}, Stats: agg.Stats{Count: 1, Sum: y}})
			}
			checkBuild(t, fmt.Sprintf("%s cross %v", pool.name, side), agg.NewResult([]string{"a", "b"}, "m", groups), Spec{Target: agg.Sum})
		}
	}
}
