// Package feature builds Reptile's feature matrix content (§3.3, Appendix
// B): main-effect featurization of categorical attributes, auxiliary-dataset
// join features, custom per-attribute features, and the random-effects (Z)
// column selection. The output is a set of per-attribute value→feature maps
// that can be rendered either as a dense design matrix over observed groups
// or as factorised columns over a factorizer's attribute values.
//
// Build and the dense rendering read a group-by's coded relation
// (agg.Result's Codes, Dicts and Stats), not its decoded view: the target is
// sorted once and every main-effect median read off one sweep over it; a
// column is evaluated once per dictionary code. Col.Map stays the string-keyed
// view that custom and auxiliary features, Row and FactorColumns consume. User
// callbacks (Custom.Fn, GroupFeature.Fn) receive the result decoded, as a new
// agg.Result when the caller's is not. Nothing here writes to the result.
package feature

import (
	"fmt"
	"math"
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
// the attribute's distinct values and the group-by, decoded (its Groups set),
// and returns a value→feature mapping.
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
	if groups.Len() == 0 {
		return nil, fmt.Errorf("feature: no groups to featurize")
	}
	if len(groups.Attrs) == 0 {
		return nil, fmt.Errorf("feature: no attributes to featurize")
	}
	s := &Set{Attrs: append([]string(nil), groups.Attrs...)}
	s.Cols = append(s.Cols, Col{Name: "intercept", Attr: groups.Attrs[0], Default: 1, InZ: true})

	// Main effects per attribute. Values absent from the training groups
	// default to the overall median, which no attribute changes.
	k := len(groups.Attrs)
	medianY, med, sizes, offs := mainEffects(groups, spec.Target)
	for ai, attr := range groups.Attrs {
		dict, off := groups.Dicts[ai], offs[ai]
		if !spec.KeepLeaky && slices.Max(sizes[off:off+len(dict)]) <= 1 {
			continue // one-to-one: the median would equal the group's own statistic
		}
		m := make(map[string]float64, min(len(dict), groups.Len()))
		for c, v := range dict {
			if sizes[off+c] > 0 {
				m[v] = med[off+c]
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
		m := c.Fn(vals, decoded(groups))
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

// mainEffects returns the median of the target statistic y over every group
// and over each attribute value's: med[offs[ai]+c] for attribute ai's code c,
// which sizes[offs[ai]+c] groups carry. y is ordered once (a radix sort on
// order-preserving bits); one sweep over the groups in ascending y then meets
// each bucket's middle element, or two, for every attribute at once. A bucket
// holding a NaN (ordered by nothing) or a −0 (tied with +0) has no order by
// value: its median is mat.Median's, over the bucket in group order.
func mainEffects(groups *agg.Result, target agg.Func) (medianY float64, med []float64, sizes []int32, offs []int) {
	n, k := groups.Len(), len(groups.Attrs)
	offs = make([]int, k+1)
	for ai, dict := range groups.Dicts {
		offs[ai+1] = offs[ai] + len(dict)
	}
	sizes, med = make([]int32, offs[k]), make([]float64, offs[k])
	unordered := make([]bool, offs[k]) // buckets holding a NaN or a −0
	y, keys, order := make([]float64, n), make([]uint64, n), make([]int32, n)
	for gi, st := range groups.Stats {
		v := st.Get(target)
		odd := v != v || (v == 0 && math.Signbit(v))
		for ai, c := range groups.Codes[gi*k : (gi+1)*k] {
			sizes[offs[ai]+int(c)]++
			unordered[offs[ai]+int(c)] = unordered[offs[ai]+int(c)] || odd
		}
		b := math.Float64bits(v)
		if b>>63 == 1 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		y[gi], keys[gi], order[gi] = v, b, int32(gi)
	}
	data.SortKeys(keys, order, math.MaxUint64)
	seen := make([]int32, offs[k])
	for _, gi := range order {
		for ai, c := range groups.Codes[int(gi)*k : (int(gi)+1)*k] {
			s := offs[ai] + int(c)
			if p, size := seen[s], sizes[s]; p == (size-1)/2 { // the middle, or the lower of two
				med[s] = y[gi]
			} else if p == size/2 {
				med[s] = (med[s] + y[gi]) / 2
			}
			seen[s]++
		}
	}
	if medianY = y[order[n/2]]; n%2 == 0 {
		medianY = (y[order[n/2-1]] + medianY) / 2
	}
	if !slices.Contains(unordered, true) {
		return medianY, med, sizes, offs
	}
	buckets := make([][]float64, offs[k])
	for gi, v := range y {
		for ai, c := range groups.Codes[gi*k : (gi+1)*k] {
			if s := offs[ai] + int(c); unordered[s] {
				buckets[s] = append(buckets[s], v)
			}
		}
	}
	for s, b := range buckets {
		if b != nil {
			med[s] = mat.Median(b)
		}
	}
	return mat.Median(y), med, sizes, offs
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
	x := mat.New(groups.Len(), s.NumCols())
	k := len(groups.Attrs)
	for ci, c := range s.Cols {
		ai := slices.Index(groups.Attrs, c.Attr)
		byCode := make([]float64, len(groups.Dicts[ai]))
		for code, v := range groups.Dicts[ai] {
			byCode[code] = c.Value(v)
		}
		for gi := range groups.Len() {
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

// decoded returns groups with its decoded view, the form user callbacks
// (Custom.Fn, GroupFeature.Fn) receive: groups itself when it carries one,
// else a new Result.
func decoded(groups *agg.Result) *agg.Result {
	if groups.Groups != nil {
		return groups
	}
	return groups.Decode()
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
	for gi := range groups.Len() {
		if gi == 0 || !slices.Equal(groups.Codes[gi*k:gi*k+k-1], groups.Codes[(gi-1)*k:gi*k-1]) {
			starts = append(starts, gi)
		}
	}
	return starts
}
