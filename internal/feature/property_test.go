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
	bits := math.Float64bits
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
		set, err := Build(groups, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := referenceCols(groups, spec)
		if len(set.Cols) != len(want) {
			t.Fatalf("trial %d (%v): %d columns, want %d", trial, groups.Attrs, len(set.Cols), len(want))
		}
		for ci, w := range want {
			g := set.Cols[ci]
			if g.Name != w.Name || g.Attr != w.Attr || g.InZ != w.InZ || bits(g.Default) != bits(w.Default) ||
				len(g.Map) != len(w.Map) || (g.Map == nil) != (w.Map == nil) {
				t.Fatalf("trial %d col %d: got %+v, want %+v", trial, ci, g, w)
			}
			for v, f := range w.Map {
				if gf, ok := g.Map[v]; !ok || bits(gf) != bits(f) {
					t.Fatalf("trial %d col %s value %q: got %v (present %v), want %v", trial, w.Name, v, gf, ok, f)
				}
			}
		}
		x := set.DenseX(groups)
		var starts []int
		for gi, g := range groups.Groups {
			for ci, c := range want {
				if f := c.Value(g.Vals[slices.Index(groups.Attrs, c.Attr)]); bits(x.At(gi, ci)) != bits(f) {
					t.Fatalf("trial %d: DenseX[%d,%s] = %v, want %v", trial, gi, c.Name, x.At(gi, ci), f)
				}
			}
			last := len(g.Vals) - 1
			if gi == 0 || !slices.Equal(g.Vals[:last], groups.Groups[gi-1].Vals[:last]) {
				starts = append(starts, gi)
			}
		}
		if got := ClusterStarts(groups); !slices.Equal(got, starts) {
			t.Fatalf("trial %d: ClusterStarts = %v, want %v", trial, got, starts)
		}
	}
}
