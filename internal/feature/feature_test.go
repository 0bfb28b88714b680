package feature

import (
	"math"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
)

// demo dataset: two districts × two years, severity measure.
func demo() *data.Dataset {
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	d := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	rows := []struct {
		dist, vil, yr string
		sev           float64
	}{
		{"Ofla", "Adishim", "1986", 8},
		{"Ofla", "Adishim", "1987", 6},
		{"Ofla", "Darube", "1986", 2},
		{"Ofla", "Darube", "1987", 3},
		{"Raya", "Kukufto", "1986", 7},
		{"Raya", "Kukufto", "1987", 5},
	}
	for _, r := range rows {
		d.AppendRowVals([]string{r.dist, r.vil, r.yr}, []float64{r.sev})
	}
	return d
}

// valueOf returns column c's feature for value v of its attribute: its
// code's in set's dictionary, or Default for a value the dictionary lacks.
func valueOf(set *Set, c Col, v string) float64 {
	if code := slices.Index(set.Dicts[slices.Index(set.Attrs, c.Attr)], v); code >= 0 {
		return c.ByCode[code]
	}
	return c.Default
}

func TestBuildMainEffects(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "village", "year"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: intercept + main:district + main:year. main:village is
	// dropped as leaky (each village+year group is unique per village? no —
	// villages appear in two years, so village is kept).
	names := map[string]bool{}
	for _, c := range set.Cols {
		names[c.Name] = true
	}
	if !names["intercept"] || !names["main:district"] || !names["main:year"] || !names["main:village"] {
		t.Fatalf("columns = %v", names)
	}
	// main:year for 1986: median of means {8, 2, 7} = 7.
	var yearCol Col
	for _, c := range set.Cols {
		if c.Name == "main:year" {
			yearCol = c
		}
	}
	if got := valueOf(set, yearCol, "1986"); got != 7 {
		t.Errorf("main:year(1986) = %v, want 7", got)
	}
	// Unknown value falls back to the global median.
	if got := valueOf(set, yearCol, "2999"); got != yearCol.Default {
		t.Errorf("unknown value = %v, want default", got)
	}
}

func TestLeakGuardDropsOneToOneAttr(t *testing.T) {
	d := demo()
	// Group by village only: each village value is its own group → leaky.
	groups := agg.GroupBy(d, []string{"village"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range set.Cols {
		if c.Name == "main:village" {
			t.Error("leaky main:village should be dropped")
		}
	}
	// KeepLeaky retains it.
	set2, err := Build(groups, Spec{Target: agg.Mean, KeepLeaky: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range set2.Cols {
		if c.Name == "main:village" {
			found = true
		}
	}
	if !found {
		t.Error("KeepLeaky should retain main:village")
	}
}

func auxRainfall() *data.Dataset {
	aux := data.New("sensing", []string{"village"}, []string{"rainfall"}, nil)
	aux.AppendRowVals([]string{"Adishim"}, []float64{150})
	aux.AppendRowVals([]string{"Darube"}, []float64{600})
	aux.AppendRowVals([]string{"Kukufto"}, []float64{200})
	return aux
}

func TestAuxFeature(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "village", "year"}, "severity")
	set, err := Build(groups, Spec{
		Target: agg.Mean,
		Aux:    []Aux{{Name: "rain", Table: auxRainfall(), JoinAttr: "village", Measure: "rainfall"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rainCol *Col
	for i := range set.Cols {
		if set.Cols[i].Name == "aux:rain" {
			rainCol = &set.Cols[i]
		}
	}
	if rainCol == nil {
		t.Fatal("aux:rain missing")
	}
	// Z-scored: Darube has the largest rainfall → the largest feature.
	rain := func(v string) float64 { return valueOf(set, *rainCol, v) }
	if rain("Darube") <= rain("Adishim") {
		t.Error("z-scored rainfall ordering wrong")
	}
	// Mean of the z-scores is 0.
	sum := rain("Adishim") + rain("Darube") + rain("Kukufto")
	if math.Abs(sum) > 1e-9 {
		t.Errorf("z-scores sum to %v", sum)
	}
}

func TestAuxNotApplicableWithoutAttr(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "year"}, "severity")
	set, err := Build(groups, Spec{
		Target: agg.Mean,
		Aux:    []Aux{{Name: "rain", Table: auxRainfall(), JoinAttr: "village", Measure: "rainfall"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range set.Cols {
		if c.Name == "aux:rain" {
			t.Error("aux feature should not apply before drilling to village")
		}
	}
}

func TestAuxErrors(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"village"}, "severity")
	if _, err := Build(groups, Spec{Target: agg.Mean, Aux: []Aux{{Name: "bad", Table: auxRainfall(), JoinAttr: "nope", Measure: "rainfall"}}}); err == nil {
		// JoinAttr not in groups.Attrs → silently skipped, not an error.
		t.Log("aux with unknown join attr skipped")
	}
	bad := data.New("aux", []string{"village"}, []string{"x"}, nil)
	if _, err := Build(groups, Spec{Target: agg.Mean, Aux: []Aux{{Name: "bad", Table: bad, JoinAttr: "village", Measure: "rainfall"}}}); err == nil {
		t.Error("expected missing-measure error")
	}
}

func TestCustomFeature(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "year"}, "severity")
	set, err := Build(groups, Spec{
		Target: agg.Mean,
		Custom: []Custom{{
			Name: "yearnum",
			Attr: "year",
			Fn: func(vals []string, _ *agg.Result) map[string]float64 {
				m := map[string]float64{}
				for i, v := range vals {
					m[v] = float64(i)
				}
				return m
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c *Col
	for i := range set.Cols {
		if set.Cols[i].Name == "custom:yearnum" {
			c = &set.Cols[i]
		}
	}
	if c == nil {
		t.Fatal("custom feature missing")
	}
	if valueOf(set, *c, "1986") != 0 || valueOf(set, *c, "1987") != 1 {
		t.Errorf("custom values wrong: %v %v", valueOf(set, *c, "1986"), valueOf(set, *c, "1987"))
	}
}

func TestCustomFeatureNilResult(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"year"}, "severity")
	_, err := Build(groups, Spec{
		Target: agg.Mean,
		Custom: []Custom{{Name: "nil", Attr: "year", Fn: func([]string, *agg.Result) map[string]float64 { return nil }}},
	})
	if err == nil {
		t.Error("expected error for nil custom feature result")
	}
}

func TestDenseXShapeAndValues(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "year"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	x := set.DenseX(groups)
	if x.Rows != len(groups.Groups) || x.Cols != len(set.Cols) {
		t.Fatalf("DenseX shape %dx%d", x.Rows, x.Cols)
	}
	// Intercept column is all ones.
	for i := 0; i < x.Rows; i++ {
		if x.At(i, 0) != 1 {
			t.Errorf("intercept row %d = %v", i, x.At(i, 0))
		}
	}
}

func TestFactorColumnsMatchDense(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"year", "district"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	timeSrc, err := factor.SourceFromDataset(d, data.Hierarchy{Name: "time", Attrs: []string{"year"}})
	if err != nil {
		t.Fatal(err)
	}
	geoSrc, err := factor.SourceFromDataset(d, data.Hierarchy{Name: "geo", Attrs: []string{"district", "village"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := factor.New([]*factor.Source{timeSrc, geoSrc}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := set.FactorColumns(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != len(set.Cols) {
		t.Fatalf("FactorColumns count = %d, want %d", len(cols), len(set.Cols))
	}
	// Every level value's feature must match the column's for its code.
	for ci, c := range set.Cols {
		a := f.Attrs()[cols[ci].Attr]
		lv := f.Chain(a.Hier).Levels[a.Level]
		for i, code := range lv.Codes {
			if got, want := cols[ci].Vals[i], valueOf(set, c, lv.Dict[code]); got != want {
				t.Errorf("col %q value %q = %v, want %v", c.Name, lv.Dict[code], got, want)
			}
		}
	}
	// Unknown attribute errors.
	set.Cols[0].Attr = "bogus"
	if _, err := set.FactorColumns(f); err == nil {
		t.Error("expected unknown-attribute error")
	}
}

func TestZMaskAndExclude(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "year"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean, ExcludeFromZ: []string{"main:year"}})
	if err != nil {
		t.Fatal(err)
	}
	mask := set.ZMask()
	for i, c := range set.Cols {
		want := c.Name != "main:year"
		if mask[i] != want {
			t.Errorf("ZMask[%s] = %v, want %v", c.Name, mask[i], want)
		}
	}
}

func TestClusterStarts(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "village"}, "severity")
	starts := ClusterStarts(groups)
	// Groups sorted: (Ofla,Adishim), (Ofla,Darube), (Raya,Kukufto) →
	// clusters at 0 (Ofla) and 2 (Raya).
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 2 {
		t.Errorf("ClusterStarts = %v", starts)
	}
	// Single attribute → single cluster.
	g1 := agg.GroupBy(d, []string{"year"}, "severity")
	if s := ClusterStarts(g1); len(s) != 1 || s[0] != 0 {
		t.Errorf("single-attr ClusterStarts = %v", s)
	}
	if s := ClusterStarts(&agg.Result{}); s != nil {
		t.Errorf("empty ClusterStarts = %v", s)
	}
}

func TestBuildEmptyGroups(t *testing.T) {
	if _, err := Build(&agg.Result{}, Spec{Target: agg.Mean}); err == nil {
		t.Error("expected error for empty groups")
	}
}

// TestFactorColumnsRefusesForeignDictionary renders a set over a factorizer
// whose geo levels code against dictionaries of their own: factor.NewSource
// interns its paths in the order given. Listed in the dataset's order, the
// dictionaries hold the same values at the same codes and are accepted;
// reordered, every code would name another value, and FactorColumns refuses.
func TestFactorColumnsRefusesForeignDictionary(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"year", "district"}, "severity")
	set, err := Build(groups, Spec{Target: agg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	timeSrc, err := factor.SourceFromDataset(d, data.Hierarchy{Name: "time", Attrs: []string{"year"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		paths [][]string
		ok    bool
	}{
		{[][]string{{"Ofla", "Adishim"}, {"Ofla", "Darube"}, {"Raya", "Kukufto"}}, true},
		{[][]string{{"Raya", "Kukufto"}, {"Ofla", "Adishim"}, {"Ofla", "Darube"}}, false},
	} {
		geoSrc, err := factor.NewSource("geo", []string{"district", "village"}, tc.paths)
		if err != nil {
			t.Fatal(err)
		}
		f, err := factor.New([]*factor.Source{timeSrc, geoSrc}, []int{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.FactorColumns(f); (err == nil) != tc.ok {
			t.Errorf("paths %v: FactorColumns error %v, want accepted %v", tc.paths, err, tc.ok)
		}
	}
}

// TestRowByCode holds Row to the dense rendering at every group's codes, and
// to every column's Default — the intercept's 1 included — at a code outside
// each dictionary.
func TestRowByCode(t *testing.T) {
	d := demo()
	groups := agg.GroupBy(d, []string{"district", "village", "year"}, "severity")
	set, err := Build(groups, Spec{
		Target: agg.Mean,
		Aux:    []Aux{{Name: "rain", Table: auxRainfall(), JoinAttr: "village", Measure: "rainfall"}},
		Custom: []Custom{{Name: "one", Attr: "year", Fn: func([]string, *agg.Result) map[string]float64 { return map[string]float64{"1986": 1} }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	x, k := set.DenseX(groups), len(groups.Attrs)
	for gi := range groups.Len() {
		if got, want := set.Row(groups.Codes[gi*k:(gi+1)*k]), x.Row(gi); !slices.Equal(got, want) {
			t.Errorf("group %d: Row = %v, DenseX = %v", gi, got, want)
		}
	}
	row := set.Row([]uint32{math.MaxUint32, math.MaxUint32, math.MaxUint32})
	for ci, c := range set.Cols {
		if math.Float64bits(row[ci]) != math.Float64bits(c.Default) {
			t.Errorf("column %s at no code = %v, want its default %v", c.Name, row[ci], c.Default)
		}
	}
	if row[0] != 1 {
		t.Errorf("intercept at no code = %v, want 1", row[0])
	}
}

// TestLagFeatureLeadsAndLags: a positive lag reads the group lag time values
// earlier, a negative one the group -lag values later, and a group with no
// counterpart that far away keeps its own statistic, at either end.
func TestLagFeatureLeadsAndLags(t *testing.T) {
	groups := agg.GroupBy(demo(), []string{"district", "village", "year"}, "severity")
	yi := slices.Index(groups.Attrs, "year")
	other := map[string]string{"1986": "1987", "1987": "1986"}
	for _, tc := range []struct {
		lag      int
		readFrom string // the year whose groups read the other year's statistic
	}{{1, "1987"}, {-1, "1986"}, {0, ""}, {2, ""}, {-2, ""}} {
		got := LagFeature("year", tc.lag).Fn(groups, agg.Mean)
		for gi, g := range groups.Groups {
			want := g.Stats.Get(agg.Mean)
			if g.Vals[yi] == tc.readFrom {
				vals := slices.Clone(g.Vals)
				vals[yi] = other[vals[yi]]
				src, _ := groups.Get(vals)
				want = src.Stats.Get(agg.Mean)
			}
			if got[gi] != want {
				t.Errorf("lag %d, group %v: %v, want %v", tc.lag, g.Vals, got[gi], want)
			}
		}
	}
}
