// Package baselines implements the comparison methods of §5.2.1: Sensitivity
// (Scorpion-style deletion interventions), Support (density), Outlier (model
// residual without the complaint), and Raw (record-level winsorization
// repair). Each ranks the same candidate drill-down groups as Reptile and
// returns the indices of the groups it recommends, best first.
package baselines

import (
	"math"
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
)

// ranked sorts indices by score ascending (lower is better).
func ranked(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	return idx
}

// Sensitivity ranks groups by the complaint value after deleting all of the
// group's rows — the interventional-deletion metric of Scorpion [57].
func Sensitivity(children []agg.Group, c core.Complaint) []int {
	var total agg.Stats
	for _, g := range children {
		total = total.Add(g.Stats)
	}
	scores := make([]float64, len(children))
	for i, g := range children {
		after := agg.Stats{
			Count: total.Count - g.Stats.Count,
			Sum:   total.Sum - g.Stats.Sum,
			SumSq: total.SumSq - g.Stats.SumSq,
		}
		scores[i] = c.Eval(after.Get(c.Agg))
	}
	return ranked(scores)
}

// Support ranks groups by row count descending — the density criterion used
// as pruning in explanation systems [1, 24].
func Support(children []agg.Group) []int {
	scores := make([]float64, len(children))
	for i, g := range children {
		scores[i] = -g.Stats.Count
	}
	return ranked(scores)
}

// Outlier ranks groups by |observed − predicted| descending, ignoring the
// complaint. pred holds the model's expected value of the complained
// aggregate per group (aligned with children).
func Outlier(children []agg.Group, pred []float64, f agg.Func) []int {
	scores := make([]float64, len(children))
	for i, g := range children {
		scores[i] = -math.Abs(g.Stats.Get(f) - pred[i])
	}
	return ranked(scores)
}

// Raw is the record-level bottom-up approach based on winsorization [29]:
// within each group it clips every measure value to [mean−std, mean+std],
// then ranks groups by the complaint value after replacing the group's
// statistics with the clipped ones.
func Raw(ds *data.Dataset, groups *agg.Result, children []int, measure string, c core.Complaint) []int {
	// Collect each child group's raw values.
	vals := make(map[int][]float64, len(children))
	childOf := make(map[string]int, len(children))
	for _, gi := range children {
		childOf[groups.Groups[gi].Key()] = gi
	}
	ms := ds.Measure(measure)
	for row := 0; row < ds.NumRows(); row++ {
		key := ds.RowKey(row, groups.Attrs)
		if gi, ok := childOf[key]; ok {
			vals[gi] = append(vals[gi], ms[row])
		}
	}
	var total agg.Stats
	for _, gi := range children {
		total = total.Add(groups.Groups[gi].Stats)
	}
	scores := make([]float64, len(children))
	for i, gi := range children {
		g := groups.Groups[gi]
		clipped := winsorize(vals[gi])
		repaired := agg.FromValues(clipped)
		after := total.Add(agg.Stats{
			Count: repaired.Count - g.Stats.Count,
			Sum:   repaired.Sum - g.Stats.Sum,
			SumSq: repaired.SumSq - g.Stats.SumSq,
		})
		scores[i] = c.Eval(after.Get(c.Agg))
	}
	return ranked(scores)
}

// winsorize clips values to [mean−std, mean+std].
func winsorize(v []float64) []float64 {
	s := agg.FromValues(v)
	lo, hi := s.Mean()-s.Std(), s.Mean()+s.Std()
	out := make([]float64, len(v))
	for i, x := range v {
		switch {
		case x < lo:
			out[i] = lo
		case x > hi:
			out[i] = hi
		default:
			out[i] = x
		}
	}
	return out
}
