package feature

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/mat"
)

// GroupFeature is a multi-attribute feature (Appendix H): a feature whose
// value depends on the whole group key rather than a single attribute —
// e.g. a temporal lag ("this location's statistic on the previous day").
// Fn receives the group-by decoded (its Groups set) and returns one value per
// group, aligned with groups.Groups.
//
// Because a multi-attribute feature has no single-attribute factorisation,
// its columns exist only in the dense rendering; building factorised columns
// for a set containing group features returns an error, and the engine falls
// back to the naive trainer (exactly the regime Appendix H describes: with
// features over all attributes the factorised matrix has no redundancy left
// to exploit).
type GroupFeature struct {
	Name string
	// Fn receives the group-by result and the statistic being modeled (so
	// e.g. a lag feature lags the count when the count model is trained and
	// the mean when the mean model is trained).
	Fn func(groups *agg.Result, target agg.Func) []float64
}

// extraCol is a materialized per-group feature column.
type extraCol struct {
	Name string
	Vals []float64
	InZ  bool
}

// BuildWithGroupFeatures constructs the feature set and appends the
// materialized multi-attribute features. With any group feature, groups is
// decoded once, and Build and every Fn see that decoded result.
func BuildWithGroupFeatures(groups *agg.Result, spec Spec, gfs []GroupFeature) (*Set, error) {
	if len(gfs) > 0 {
		groups = decoded(groups)
	}
	s, err := Build(groups, spec)
	if err != nil {
		return nil, err
	}
	for _, gf := range gfs {
		vals := gf.Fn(groups, spec.Target)
		if len(vals) != groups.Len() {
			return nil, fmt.Errorf("feature: group feature %q returned %d values for %d groups",
				gf.Name, len(vals), groups.Len())
		}
		name := "group:" + gf.Name
		s.Extra = append(s.Extra, extraCol{
			Name: name,
			Vals: vals,
			InZ:  !slices.Contains(spec.ExcludeFromZ, name),
		})
	}
	return s, nil
}

// LagFeature builds a temporal lag group feature: each group's feature is
// the modeled statistic of the group whose timeAttr value precedes it by lag
// positions (in the sorted order of timeAttr values), with every other
// attribute equal. A negative lag is a lead: the group -lag positions later.
// Groups without a lagged (or led) counterpart receive their own statistic
// (no signal).
func LagFeature(timeAttr string, lag int) GroupFeature {
	return GroupFeature{
		Name: fmt.Sprintf("lag%d:%s", lag, timeAttr),
		Fn: func(groups *agg.Result, target agg.Func) []float64 {
			out := make([]float64, len(groups.Groups))
			for gi, g := range groups.Groups {
				out[gi] = g.Stats.Get(target)
			}
			ti := slices.Index(groups.Attrs, timeAttr)
			if ti < 0 {
				return out
			}
			// Sorted distinct time values: a value's position is its index.
			var order []string
			for _, g := range groups.Groups {
				order = append(order, g.Vals[ti])
			}
			slices.Sort(order)
			order = slices.Compact(order)
			// Look up the group with the time value replaced by the value
			// lag positions earlier.
			for gi, g := range groups.Groups {
				p, _ := slices.BinarySearch(order, g.Vals[ti])
				if q := p - lag; q >= 0 && q < len(order) {
					vals := slices.Clone(g.Vals)
					vals[ti] = order[q]
					if prev, ok := groups.Get(vals); ok {
						out[gi] = prev.Stats.Get(target)
					}
				}
			}
			return out
		},
	}
}

// AuxGroupFeature joins an auxiliary table on multiple attributes (the
// multi-attribute external feature of Appendix H): each group's feature is
// the mean of the auxiliary measure over rows matching the group's values of
// joinAttrs, z-scored across groups. Groups without a match receive 0 (the
// post-standardization mean).
func AuxGroupFeature(name string, table *data.Dataset, joinAttrs []string, measure string) GroupFeature {
	return GroupFeature{
		Name: "aux:" + name,
		Fn: func(groups *agg.Result, _ agg.Func) []float64 {
			sums := make(map[string]float64)
			counts := make(map[string]float64)
			cols := make([][]string, len(joinAttrs))
			for i, a := range joinAttrs {
				cols[i] = table.Dim(a)
			}
			ms := table.Measure(measure)
			key := make([]string, len(joinAttrs))
			for r := 0; r < table.NumRows(); r++ {
				for i := range joinAttrs {
					key[i] = cols[i][r]
				}
				k := data.EncodeKey(key)
				sums[k] += ms[r]
				counts[k]++
			}
			idx := make([]int, len(joinAttrs))
			for i, a := range joinAttrs {
				idx[i] = slices.Index(groups.Attrs, a)
			}
			out := make([]float64, len(groups.Groups))
			seen := make([]bool, len(groups.Groups))
			var obs []float64
			for gi, g := range groups.Groups {
				for i := range joinAttrs {
					if idx[i] < 0 {
						return out // join attribute absent: feature inert
					}
					key[i] = g.Vals[idx[i]]
				}
				k := data.EncodeKey(key)
				if c, ok := counts[k]; ok {
					out[gi] = sums[k] / c
					seen[gi] = true
					obs = append(obs, out[gi])
				}
			}
			m, s := mat.Mean(obs), mat.Std(obs)
			for gi := range out {
				if !seen[gi] || s == 0 {
					out[gi] = 0
					continue
				}
				out[gi] = (out[gi] - m) / s
			}
			return out
		},
	}
}
