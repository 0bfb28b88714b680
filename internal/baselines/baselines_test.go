package baselines

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
)

func groupsFixture() []agg.Group {
	mk := func(name string, vals []float64) agg.Group {
		return agg.Group{Vals: []string{name}, Stats: agg.FromValues(vals)}
	}
	return []agg.Group{
		mk("a", []float64{10, 10, 10, 10}),     // normal
		mk("b", []float64{10, 10}),             // low count
		mk("c", []float64{30, 30, 30, 30, 30}), // high values, biggest count
	}
}

func TestSensitivityPrefersDeletionThatHelps(t *testing.T) {
	children := groupsFixture()
	// "sum too high": deleting c removes the most sum.
	c := core.Complaint{Agg: agg.Sum, Direction: core.TooHigh}
	order := Sensitivity(children, c)
	if order[0] != 2 {
		t.Errorf("Sensitivity top = %d, want 2 (group c)", order[0])
	}
	// "count too low": no deletion helps; the least-harmful deletion is the
	// smallest group.
	c = core.Complaint{Agg: agg.Count, Direction: core.TooLow}
	order = Sensitivity(children, c)
	if order[0] != 1 {
		t.Errorf("Sensitivity top = %d, want 1 (smallest group)", order[0])
	}
}

func TestSupportPicksLargestGroup(t *testing.T) {
	order := Support(groupsFixture())
	if order[0] != 2 {
		t.Errorf("Support top = %d, want 2", order[0])
	}
}

func TestOutlierPicksLargestResidual(t *testing.T) {
	children := groupsFixture()
	pred := []float64{10, 10, 10} // model expects mean 10 everywhere
	order := Outlier(children, pred, agg.Mean)
	if order[0] != 2 {
		t.Errorf("Outlier top = %d, want 2 (mean 30 vs 10)", order[0])
	}
}

func TestRawWinsorization(t *testing.T) {
	h := []data.Hierarchy{{Name: "g", Attrs: []string{"grp"}}}
	ds := data.New("x", []string{"grp"}, []string{"m"}, h)
	// Group "a": one wild outlier pulls the mean up; winsorization brings it
	// back. Group "b": symmetric, winsorization changes little.
	for _, v := range []float64{10, 10, 10, 100} {
		ds.AppendRowVals([]string{"a"}, []float64{v})
	}
	for _, v := range []float64{10, 12, 8, 10} {
		ds.AppendRowVals([]string{"b"}, []float64{v})
	}
	groups := agg.GroupBy(ds, []string{"grp"}, "m")
	children := []int{0, 1}
	c := core.Complaint{Agg: agg.Mean, Direction: core.TooHigh}
	order := Raw(ds, groups, children, "m", c)
	if groups.Groups[children[order[0]]].Key() != "a" {
		t.Errorf("Raw top = %v, want group a", groups.Groups[children[order[0]]].Key())
	}
}

func TestWinsorizeClipsToOneStd(t *testing.T) {
	out := winsorize([]float64{0, 10, 10, 10, 20})
	s := agg.FromValues([]float64{0, 10, 10, 10, 20})
	lo, hi := s.Mean()-s.Std(), s.Mean()+s.Std()
	for _, v := range out {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Errorf("winsorized value %v outside [%v, %v]", v, lo, hi)
		}
	}
}
