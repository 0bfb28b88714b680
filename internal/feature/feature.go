// Package feature builds Reptile's feature matrix content (§3.3, Appendix
// B): main-effect featurization of categorical attributes, auxiliary-dataset
// join features, custom per-attribute features, and the random-effects (Z)
// column selection. The output is a set of per-attribute value→feature maps
// that can be rendered either as a dense design matrix over observed groups
// or as factorised columns over a factorizer's attribute values.
//
// Build and the dense rendering read a group-by's codes (agg.Result.Codes),
// not its strings: main-effect medians are bucketed by a counting sort on the
// codes and taken in place, a column is evaluated once per dictionary code.
// Col.Map stays the string-keyed view that custom and auxiliary features, Row
// and FactorColumns consume. Nothing here writes to the result.
package feature

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/mat"
)

// Aux references an auxiliary dataset joined into the feature matrix
// (§3.3.2): rows of Table are joined on JoinAttr and contribute Measure as a
// numeric feature (centered and normalized).
type Aux struct {
	Name     string
	Table    *data.Dataset
	JoinAttr string
	Measure  string
}

// Custom is a user-defined per-attribute featurization (§3.3.3): Fn receives
// the attribute's distinct values and the per-group statistics and returns a
// value→feature mapping.
type Custom struct {
	Name string
	Attr string
	Fn   func(vals []string, groups *agg.Result) map[string]float64
}

// Spec configures feature construction.
type Spec struct {
	// Target is the aggregate being modeled (the complaint's statistic).
	Target agg.Func
	// Aux lists auxiliary datasets to join when their attribute is present.
	Aux []Aux
	// Custom lists user featurizations to apply when applicable.
	Custom []Custom
	// ExcludeFromZ names features whose derived columns are excluded from
	// the random-effects design Z (§3.3.4).
	ExcludeFromZ []string
	// KeepLeaky disables the guard that drops a main-effect feature whose
	// attribute values map one-to-one to training groups (which would leak
	// the group's own statistic and mask every error).
	KeepLeaky bool
}

// Col is one feature column: a value→feature map over one attribute.
// A nil Map means the column is constant (the intercept).
type Col struct {
	Name    string
	Attr    string
	Map     map[string]float64
	Default float64 // value for attribute values missing from Map
	InZ     bool
}

// Value returns the feature value for attribute value v.
func (c Col) Value(v string) float64 {
	if c.Map == nil {
		return c.Default
	}
	if f, ok := c.Map[v]; ok {
		return f
	}
	return c.Default
}

// Set is the constructed feature set for one drill-down's group-by result.
// Extra holds materialized multi-attribute (per-group) feature columns; they
// render only densely (see BuildWithGroupFeatures).
type Set struct {
	Attrs []string // the group-by attributes, in attribute order
	Cols  []Col
	Extra []extraCol
}

// NumCols returns the total column count including group features.
func (s *Set) NumCols() int { return len(s.Cols) + len(s.Extra) }

// Build constructs the feature set for the given group-by result.
//
// Default features follow §3.3.1: every attribute is treated as categorical
// and featurized by its main effect — each value is replaced by the median
// of the target statistic over the groups carrying that value. A main-effect
// column is dropped when its values map one-to-one to groups (see
// Spec.KeepLeaky). Auxiliary features are z-scored; the intercept is always
// the first column.
func Build(groups *agg.Result, spec Spec) (*Set, error) {
	if len(groups.Groups) == 0 {
		return nil, fmt.Errorf("feature: no groups to featurize")
	}
	if len(groups.Attrs) == 0 {
		return nil, fmt.Errorf("feature: no attributes to featurize")
	}
	s := &Set{Attrs: append([]string(nil), groups.Attrs...)}
	s.Cols = append(s.Cols, Col{Name: "intercept", Attr: groups.Attrs[0], Default: 1, InZ: true})

	y := make([]float64, len(groups.Groups))
	for i, g := range groups.Groups {
		y[i] = g.Stats.Get(spec.Target)
	}

	// Main effects per attribute. Values absent from the training groups
	// default to the overall median, which no attribute changes.
	k := len(groups.Attrs)
	buf := slices.Clone(y) // scratch: y whole, then bucketed by each attribute's code
	medianY := mat.MedianInPlace(buf)
	var ends []int
	for ai, attr := range groups.Attrs {
		// A counting sort on the codes: ends[c+1] counts code c, then starts
		// its bucket, and after the fill (in group order) ends[c] closes it.
		dict := groups.Dicts[ai]
		ends = append(ends[:0], make([]int, len(dict)+1)...)
		for gi := range y {
			ends[groups.Codes[gi*k+ai]+1]++
		}
		oneToOne := true
		for c := range dict {
			oneToOne = oneToOne && ends[c+1] <= 1
			ends[c+1] += ends[c]
		}
		if oneToOne && !spec.KeepLeaky {
			continue // the median would equal the group's own statistic
		}
		for gi, v := range y {
			c := groups.Codes[gi*k+ai]
			buf[ends[c]] = v
			ends[c]++
		}
		m := make(map[string]float64, min(len(dict), len(y)))
		lo := 0
		for c, v := range dict {
			if hi := ends[c]; hi > lo {
				m[v] = mat.MedianInPlace(buf[lo:hi])
				lo = hi
			}
		}
		name := "main:" + attr
		s.Cols = append(s.Cols, Col{
			Name:    name,
			Attr:    attr,
			Map:     m,
			Default: medianY,
			InZ:     !slices.Contains(spec.ExcludeFromZ, name),
		})
	}

	// Auxiliary join features (applicable once their attribute is in the
	// group-by).
	for _, aux := range spec.Aux {
		if !slices.Contains(groups.Attrs, aux.JoinAttr) {
			continue
		}
		col, err := buildAuxCol(aux)
		if err != nil {
			return nil, err
		}
		col.InZ = !slices.Contains(spec.ExcludeFromZ, col.Name)
		s.Cols = append(s.Cols, col)
	}

	// Custom features.
	for _, c := range spec.Custom {
		if !slices.Contains(groups.Attrs, c.Attr) {
			continue
		}
		ai := slices.Index(groups.Attrs, c.Attr)
		seen := make([]bool, len(groups.Dicts[ai]))
		var vals []string
		for i := ai; i < len(groups.Codes); i += k {
			if code := groups.Codes[i]; !seen[code] {
				seen[code] = true
				vals = append(vals, groups.Dicts[ai][code])
			}
		}
		sort.Strings(vals)
		m := c.Fn(vals, groups)
		if m == nil {
			return nil, fmt.Errorf("feature: custom feature %q returned nil", c.Name)
		}
		name := "custom:" + c.Name
		s.Cols = append(s.Cols, Col{
			Name: name,
			Attr: c.Attr,
			Map:  m,
			InZ:  !slices.Contains(spec.ExcludeFromZ, name),
		})
	}
	return s, nil
}

// buildAuxCol aggregates the auxiliary measure per join value (mean when
// several rows share a value), then z-scores across values.
func buildAuxCol(aux Aux) (Col, error) {
	if !aux.Table.HasDim(aux.JoinAttr) {
		return Col{}, fmt.Errorf("feature: auxiliary %q lacks join attribute %q", aux.Name, aux.JoinAttr)
	}
	if !aux.Table.HasMeasure(aux.Measure) {
		return Col{}, fmt.Errorf("feature: auxiliary %q lacks measure %q", aux.Name, aux.Measure)
	}
	keys := aux.Table.Dim(aux.JoinAttr)
	ms := aux.Table.Measure(aux.Measure)
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for i, k := range keys {
		sums[k] += ms[i]
		counts[k]++
	}
	vals := make([]string, 0, len(sums))
	for k := range sums {
		vals = append(vals, k)
	}
	sort.Strings(vals)
	raw := make([]float64, len(vals))
	for i, v := range vals {
		raw[i] = sums[v] / counts[v]
	}
	z := mat.Standardize(raw)
	m := make(map[string]float64, len(vals))
	for i, v := range vals {
		m[v] = z[i]
	}
	return Col{Name: "aux:" + aux.Name, Attr: aux.JoinAttr, Map: m}, nil
}

// DenseX renders the feature set as a dense design matrix with one row per
// group (in group order), group-feature columns last. A column's value is
// looked up once per dictionary code of its attribute, not once per group.
func (s *Set) DenseX(groups *agg.Result) *mat.Matrix {
	x := mat.New(len(groups.Groups), s.NumCols())
	k := len(groups.Attrs)
	for ci, c := range s.Cols {
		ai := slices.Index(groups.Attrs, c.Attr)
		byCode := make([]float64, len(groups.Dicts[ai]))
		for code, v := range groups.Dicts[ai] {
			byCode[code] = c.Value(v)
		}
		for gi := range groups.Groups {
			x.Set(gi, ci, byCode[groups.Codes[gi*k+ai]])
		}
	}
	for ei, e := range s.Extra {
		for gi, v := range e.Vals {
			x.Set(gi, len(s.Cols)+ei, v)
		}
	}
	return x
}

// Row builds a feature row for an arbitrary assignment of the group-by
// attributes — used to score empty drill-down groups, which have no observed
// row. Group-feature columns default to 0 (their post-standardization mean).
func (s *Set) Row(vals map[string]string) []float64 {
	row := make([]float64, s.NumCols())
	for ci, c := range s.Cols {
		row[ci] = c.Value(vals[c.Attr])
	}
	return row
}

// FactorColumns renders the feature set as factorised columns over the
// factorizer's attribute value tables. Sets containing multi-attribute group
// features have no factorisation and return an error.
func (s *Set) FactorColumns(f *factor.Factorizer) ([]fmatrix.Column, error) {
	if len(s.Extra) > 0 {
		return nil, fmt.Errorf("feature: %d group features have no factorised form", len(s.Extra))
	}
	out := make([]fmatrix.Column, len(s.Cols))
	for ci, c := range s.Cols {
		ai, ok := f.AttrIndex(c.Attr)
		if !ok {
			return nil, fmt.Errorf("feature: attribute %q not in factorizer", c.Attr)
		}
		vals, _ := f.CountVals(ai)
		fv := make([]float64, len(vals))
		for i, v := range vals {
			fv[i] = c.Value(v)
		}
		out[ci] = fmatrix.Column{Name: c.Name, Attr: ai, Vals: fv}
	}
	return out, nil
}

// ZMask returns, per column, whether it participates in the random-effects
// design Z (group-feature columns included, in dense column order).
func (s *Set) ZMask() []bool {
	mask := make([]bool, s.NumCols())
	for i, c := range s.Cols {
		mask[i] = c.InZ
	}
	for i, e := range s.Extra {
		mask[len(s.Cols)+i] = e.InZ
	}
	return mask
}

// ClusterStarts returns the start indices of the parent clusters in a sorted
// group-by result: groups sharing every attribute value except the last form
// one cluster. The result is suitable for mlm.NewDense.
func ClusterStarts(groups *agg.Result) []int {
	k := len(groups.Attrs)
	var starts []int
	for gi := range groups.Groups {
		if gi == 0 || !slices.Equal(groups.Codes[gi*k:gi*k+k-1], groups.Codes[(gi-1)*k:gi*k-1]) {
			starts = append(starts, gi)
		}
	}
	return starts
}
