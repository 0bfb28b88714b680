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
	"repro/internal/factor"
	"repro/internal/mat"
)

// stringCol is the reference's view of one feature column: a value → feature
// map over one attribute, Default for every value the map lacks.
type stringCol struct {
	name, attr string
	m          map[string]float64
	def        float64
	inZ        bool
}

func (c stringCol) value(v string) float64 {
	if f, ok := c.m[v]; ok {
		return f
	}
	return c.def
}

// stringReference featurizes groups (decoded) the obviously-right way: each
// main effect is mat.Median over the groups carrying a value, each auxiliary
// column the z-scored mean of its measure per join value, and each custom
// column Fn's map over the sorted distinct values of the γ.
func stringReference(groups *agg.Result, spec Spec) []stringCol {
	y := make([]float64, len(groups.Groups))
	for gi, g := range groups.Groups {
		y[gi] = g.Stats.Get(spec.Target)
	}
	inZ := func(name string) bool { return !slices.Contains(spec.ExcludeFromZ, name) }
	cols := []stringCol{{name: "intercept", attr: groups.Attrs[0], def: 1, inZ: true}}
	for ai, attr := range groups.Attrs {
		perVal := map[string][]float64{}
		for gi, g := range groups.Groups {
			perVal[g.Vals[ai]] = append(perVal[g.Vals[ai]], y[gi])
		}
		m, oneToOne := map[string]float64{}, true
		for v, ys := range perVal {
			m[v], oneToOne = mat.Median(ys), oneToOne && len(ys) == 1
		}
		if !oneToOne || spec.KeepLeaky {
			cols = append(cols, stringCol{name: "main:" + attr, attr: attr, m: m, def: mat.Median(y), inZ: inZ("main:" + attr)})
		}
	}
	for _, aux := range spec.Aux {
		if !slices.Contains(groups.Attrs, aux.JoinAttr) {
			continue
		}
		sums, counts := map[string]float64{}, map[string]float64{}
		ms := aux.Table.Measure(aux.Measure)
		for r, v := range aux.Table.Dim(aux.JoinAttr) {
			sums[v] += ms[r]
			counts[v]++
		}
		var vals []string
		for v := range sums {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		raw := make([]float64, len(vals))
		for i, v := range vals {
			raw[i] = sums[v] / counts[v]
		}
		m := map[string]float64{}
		for i, z := range mat.Standardize(raw) {
			m[vals[i]] = z
		}
		cols = append(cols, stringCol{name: "aux:" + aux.Name, attr: aux.JoinAttr, m: m, inZ: inZ("aux:" + aux.Name)})
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
		cols = append(cols, stringCol{name: "custom:" + c.Name, attr: c.Attr, m: c.Fn(vals, groups), inZ: inZ("custom:" + c.Name)})
	}
	return cols
}

// twoHierarchies draws a dataset over hierarchies geo (g1 → g2) and time
// (t1 → t2) whose values hold prefix pairs and multi-byte strings, with an
// integer measure rich in ties.
func twoHierarchies(rng *rand.Rand) *data.Dataset {
	hs := []data.Hierarchy{{Name: "geo", Attrs: []string{"g1", "g2"}}, {Name: "time", Attrs: []string{"t1", "t2"}}}
	d := data.New("rand", []string{"g1", "g2", "t1", "t2"}, []string{"m"}, hs)
	path := func() (string, string) {
		p := propertyValues[rng.Intn(1+rng.Intn(4))]
		return p, p + "/" + propertyValues[rng.Intn(1+rng.Intn(len(propertyValues)))]
	}
	for i, n := 0, 1+rng.Intn(80); i < n; i++ {
		g1, g2 := path()
		t1, t2 := path()
		d.AppendRowVals([]string{g1, g2, t1, t2}, []float64{float64(rng.Intn(5))})
	}
	return d
}

// TestRenderedColumnsMatchStringReference holds every rendering of a built
// feature set — DenseX per group, FactorColumns per value of every factorizer
// level and ZMask — bit for bit to the string-keyed reference. The γ comes
// from agg.GroupBy at a random drill state of two hierarchies, sometimes over
// a Where subset (which keeps the dictionaries, so the factorizer's levels
// carry values no group does), and the factorizer from factor.SourceFromDataset
// over the whole dataset; an auxiliary and a custom feature join on random
// attributes, with random Z exclusions and leak guard.
func TestRenderedColumnsMatchStringReference(t *testing.T) {
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(45))
	attrs := []string{"g1", "g2", "t1", "t2"}
	for trial := 0; trial < 300; trial++ {
		d := twoHierarchies(rng)
		// A drill state: the other hierarchy at depth 0..2 first, the drilled
		// one at 1..2 last.
		drilled, other := d.Hierarchies[rng.Intn(2)], data.Hierarchy{}
		for _, h := range d.Hierarchies {
			if h.Name != drilled.Name {
				other = h
			}
		}
		od, dd := rng.Intn(3), 1+rng.Intn(2)
		var sources []*factor.Source
		var depths []int
		var gb []string
		for _, hd := range []struct {
			h     data.Hierarchy
			depth int
		}{{other, od}, {drilled, dd}} {
			if hd.depth == 0 {
				continue
			}
			src, err := factor.SourceFromDataset(d, hd.h)
			if err != nil {
				t.Fatal(err)
			}
			sources, depths = append(sources, src), append(depths, hd.depth)
			gb = append(gb, hd.h.Attrs[:hd.depth]...)
		}
		fz, err := factor.New(sources, depths)
		if err != nil {
			t.Fatal(err)
		}
		view := d
		if rng.Intn(3) == 0 {
			a := gb[rng.Intn(len(gb))]
			view = d.Where(data.Predicate{a: d.Dim(a)[rng.Intn(d.NumRows())]})
		}
		groups := agg.GroupBy(view, gb, "m")

		auxAttr := attrs[rng.Intn(len(attrs))]
		aux := data.New("aux", []string{auxAttr}, []string{"x"}, nil)
		for r := 0; r < d.NumRows(); r += 1 + rng.Intn(3) {
			aux.AppendRowVals([]string{d.Dim(auxAttr)[r]}, []float64{rng.NormFloat64()})
		}
		aux.AppendRowVals([]string{"absent"}, []float64{3})
		custom := Custom{Name: "pos", Attr: attrs[rng.Intn(len(attrs))], Fn: func(vals []string, groups *agg.Result) map[string]float64 {
			m := map[string]float64{"absent": -1}
			for i, v := range vals {
				if i%3 != 2 { // some values left to the column's default
					m[v] = float64(i) + 0.25*float64(len(groups.Groups))
				}
			}
			return m
		}}
		spec := Spec{
			Target:    []agg.Func{agg.Sum, agg.Mean, agg.Count}[rng.Intn(3)],
			Aux:       []Aux{{Name: "x", Table: aux, JoinAttr: auxAttr, Measure: "x"}},
			Custom:    []Custom{custom},
			KeepLeaky: rng.Intn(2) == 0,
		}
		for _, name := range []string{"intercept", "main:g1", "main:g2", "main:t1", "main:t2", "aux:x", "custom:pos"} {
			if rng.Intn(3) == 0 {
				spec.ExcludeFromZ = append(spec.ExcludeFromZ, name)
			}
		}
		label := fmt.Sprintf("trial %d (%v over %d groups)", trial, gb, groups.Len())

		set, err := Build(groups, spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := stringReference(groups, spec)
		if len(set.Cols) != len(want) {
			t.Fatalf("%s: %d columns, want %d", label, len(set.Cols), len(want))
		}
		mask := set.ZMask()
		for ci, w := range want {
			if c := set.Cols[ci]; c.Name != w.name || c.Attr != w.attr || mask[ci] != w.inZ {
				t.Fatalf("%s: column %d is %q on %q (Z %v), want %q on %q (Z %v)", label, ci, c.Name, c.Attr, mask[ci], w.name, w.attr, w.inZ)
			}
		}
		x := set.DenseX(groups)
		for gi, g := range groups.Groups {
			for ci, w := range want {
				if f := w.value(g.Vals[slices.Index(groups.Attrs, w.attr)]); bits(x.At(gi, ci)) != bits(f) {
					t.Fatalf("%s: DenseX[%d, %s] = %v, want %v", label, gi, w.name, x.At(gi, ci), f)
				}
			}
		}
		fcols, err := set.FactorColumns(fz)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for ci, w := range want {
			a := fz.Attrs()[fcols[ci].Attr]
			lv := fz.Chain(a.Hier).Levels[a.Level]
			if fcols[ci].Name != w.name || a.Name != w.attr || len(fcols[ci].Vals) != len(lv.Codes) {
				t.Fatalf("%s: factor column %d is %q on %q with %d values, want %q on %q with %d", label, ci,
					fcols[ci].Name, a.Name, len(fcols[ci].Vals), w.name, w.attr, len(lv.Codes))
			}
			for i, code := range lv.Codes {
				if f := w.value(lv.Dict[code]); bits(fcols[ci].Vals[i]) != bits(f) {
					t.Fatalf("%s: FactorColumns %s value %q = %v, want %v", label, w.name, lv.Dict[code], fcols[ci].Vals[i], f)
				}
			}
		}
	}
}
