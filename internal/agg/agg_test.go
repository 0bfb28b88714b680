package agg

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/mat"
)

func TestFromValuesBasics(t *testing.T) {
	s := FromValues([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Sum != 10 || s.SumSq != 30 {
		t.Fatalf("FromValues = %+v", s)
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	wantVar := mat.Variance([]float64{1, 2, 3, 4})
	if math.Abs(s.Variance()-wantVar) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), wantVar)
	}
	if math.Abs(s.Std()-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Std = %v", s.Std())
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Std() != 0 || s.Variance() != 0 {
		t.Error("empty stats should be all zero")
	}
	one := FromValues([]float64{7})
	if one.Mean() != 7 || one.Std() != 0 {
		t.Errorf("singleton = mean %v std %v", one.Mean(), one.Std())
	}
}

func TestGetAllFuncs(t *testing.T) {
	s := FromValues([]float64{2, 4, 6})
	if s.Get(Count) != 3 || s.Get(Sum) != 12 || s.Get(Mean) != 4 {
		t.Error("Get basic funcs wrong")
	}
	if math.Abs(s.Get(Std)-2) > 1e-12 {
		t.Errorf("Get(Std) = %v", s.Get(Std))
	}
}

func TestParseFunc(t *testing.T) {
	for _, name := range []string{"count", "sum", "mean", "std"} {
		if _, err := ParseFunc(name); err != nil {
			t.Errorf("ParseFunc(%q): %v", name, err)
		}
	}
	if _, err := ParseFunc("max"); err == nil {
		t.Error("expected error for unsupported func")
	}
}

// The central distributivity invariant: f(R) == G(f(R1), ..., f(RJ)) for any
// partition of R.
func TestMergeDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64()*10 + 50
		}
		whole := FromValues(vals)
		// Random partition into up to 5 parts.
		parts := make([][]float64, 1+r.Intn(5))
		for _, v := range vals {
			p := r.Intn(len(parts))
			parts[p] = append(parts[p], v)
		}
		var stats []Stats
		for _, p := range parts {
			stats = append(stats, FromValues(p))
		}
		merged := Merge(stats...)
		return math.Abs(merged.Count-whole.Count) < 1e-9 &&
			math.Abs(merged.Sum-whole.Sum) < 1e-6 &&
			math.Abs(merged.Std()-whole.Std()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// MergeMoments implements the Appendix A formulas for G over (count, mean,
// std) triples directly: the reference Merge is checked against.
func MergeMoments(parts ...Stats) (count, mean, std float64) {
	var n float64
	for _, p := range parts {
		n += p.Count
	}
	count = n
	if n == 0 {
		return 0, 0, 0
	}
	var ws float64
	for _, p := range parts {
		ws += p.Count * p.Mean()
	}
	mean = ws / n
	if n < 2 {
		return count, mean, 0
	}
	var acc float64
	for _, p := range parts {
		if p.Count >= 1 {
			acc += (p.Count - 1) * p.Variance()
			d := mean - p.Mean()
			acc += p.Count * d * d
		}
	}
	v := acc / (n - 1)
	if v < 0 {
		v = 0
	}
	return count, mean, math.Sqrt(v)
}

// MergeMoments (the literal Appendix A formulas) must agree with the
// sum-of-squares merge.
func TestMergeMomentsAgreesWithMerge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var stats []Stats
		for p := 0; p < 1+r.Intn(4); p++ {
			n := 1 + r.Intn(20)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = r.NormFloat64() * 5
			}
			stats = append(stats, FromValues(vals))
		}
		m := Merge(stats...)
		c, mean, std := MergeMoments(stats...)
		return math.Abs(c-m.Count) < 1e-9 &&
			math.Abs(mean-m.Mean()) < 1e-9 &&
			math.Abs(std-m.Std()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromMomentsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 3
		}
		s := FromValues(vals)
		back := FromMoments(s.Count, s.Mean(), s.Std())
		return math.Abs(back.Count-s.Count) < 1e-9 &&
			math.Abs(back.Mean()-s.Mean()) < 1e-9 &&
			math.Abs(back.Std()-s.Std()) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWithAggregateRepairSemantics(t *testing.T) {
	s := FromValues([]float64{8, 10, 12}) // count 3, mean 10, std 2
	r := s.WithAggregate(Mean, 20)
	if r.Count != 3 || math.Abs(r.Mean()-20) > 1e-9 || math.Abs(r.Std()-2) > 1e-9 {
		t.Errorf("Mean repair = %+v (mean %v std %v)", r, r.Mean(), r.Std())
	}
	r = s.WithAggregate(Count, 6)
	if r.Count != 6 || math.Abs(r.Mean()-10) > 1e-9 || math.Abs(r.Std()-2) > 1e-9 {
		t.Errorf("Count repair = mean %v std %v", r.Mean(), r.Std())
	}
	r = s.WithAggregate(Sum, 60)
	if r.Count != 3 || math.Abs(r.Mean()-20) > 1e-9 {
		t.Errorf("Sum repair = %+v", r)
	}
	r = s.WithAggregate(Std, 5)
	if math.Abs(r.Std()-5) > 1e-9 || math.Abs(r.Mean()-10) > 1e-9 {
		t.Errorf("Std repair = std %v mean %v", r.Std(), r.Mean())
	}
}

func TestWithAggregateSumOnEmptyGroup(t *testing.T) {
	var s Stats
	r := s.WithAggregate(Sum, 10)
	if r.Sum != 10 {
		t.Errorf("Sum repair on empty group = %+v", r)
	}
	// Regression: the repair must stay empty-consistent — no phantom record.
	// A fabricated Count=1 leaked a spurious +1 into every parent COUNT merge.
	if r.Count != 0 || r.SumSq != 0 {
		t.Errorf("Sum repair on empty group fabricated records: %+v", r)
	}
	if got := Merge(r, FromValues([]float64{5})).Count; got != 1 {
		t.Errorf("merged count after empty-group Sum repair = %v, want 1", got)
	}
}

func buildDemo() *data.Dataset {
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
		{"Ofla", "Adishim", "1986", 9},
		{"Ofla", "Darube", "1986", 2},
		{"Ofla", "Zata", "1986", 1},
		{"Ofla", "Adishim", "1987", 7},
		{"Raya", "Kukufto", "1986", 6},
	}
	for _, r := range rows {
		d.AppendRowVals([]string{r.dist, r.vil, r.yr}, []float64{r.sev})
	}
	return d
}

func TestGroupBy(t *testing.T) {
	d := buildDemo()
	res := GroupBy(d, []string{"district", "year"}, "severity")
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	g, ok := res.Get([]string{"Ofla", "1986"})
	if !ok {
		t.Fatal("missing Ofla 1986")
	}
	if g.Stats.Count != 4 || g.Stats.Sum != 20 {
		t.Errorf("Ofla 1986 = %+v", g.Stats)
	}
	// Sorted order: Ofla/1986, Ofla/1987, Raya/1986.
	if res.Groups[0].Vals[0] != "Ofla" || res.Groups[0].Vals[1] != "1986" {
		t.Errorf("sort order wrong: %v", res.Groups[0].Vals)
	}
	if res.Groups[2].Vals[0] != "Raya" {
		t.Errorf("sort order wrong: %v", res.Groups[2].Vals)
	}
}

func TestGroupByTotalEqualsWhole(t *testing.T) {
	d := buildDemo()
	res := GroupBy(d, []string{"village"}, "severity")
	var total Stats
	for _, g := range res.Groups {
		total = total.Add(g.Stats)
	}
	whole := FromValues(d.Measure("severity"))
	if total != whole {
		t.Errorf("Total = %+v, want %+v", total, whole)
	}
}

func TestGroupValueLookup(t *testing.T) {
	d := buildDemo()
	res := GroupBy(d, []string{"district", "year"}, "severity")
	g := res.Groups[0]
	if v, ok := g.Value(res.Attrs, "year"); !ok || v != "1986" {
		t.Errorf("Value = %q, %v", v, ok)
	}
	if _, ok := g.Value(res.Attrs, "bogus"); ok {
		t.Error("Value found bogus attribute")
	}
}

func TestGroupByMissingGroup(t *testing.T) {
	d := buildDemo()
	res := GroupBy(d, []string{"district"}, "severity")
	if _, ok := res.Get([]string{"Nowhere"}); ok {
		t.Error("Get returned a missing group")
	}
}

// TestGetBuildsIndexOnce: the key index is built by the first Get and shared
// by every later one, also when the first look-ups race. Run with -race.
func TestGetBuildsIndexOnce(t *testing.T) {
	res := GroupBy(buildDemo(), []string{"district", "year"}, "severity")
	if res.index != nil {
		t.Fatal("index built before any Get")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g, ok := res.Get([]string{"Ofla", "1987"}); !ok || g.Stats.Count != 1 {
				t.Errorf("Get(Ofla, 1987) = %+v, %v", g, ok)
			}
		}()
	}
	wg.Wait()
	built := reflect.ValueOf(res.index).Pointer()
	if _, ok := res.Get([]string{"Raya", "1986"}); !ok || len(res.index) != len(res.Groups) {
		t.Fatalf("index holds %d keys for %d groups", len(res.index), len(res.Groups))
	}
	if reflect.ValueOf(res.index).Pointer() != built {
		t.Fatal("a later Get rebuilt the index")
	}
}
