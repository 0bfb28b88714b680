package factor

import "fmt"

// Attr identifies one attribute (column) of the implicit attribute matrix.
type Attr struct {
	Name  string
	Hier  int // hierarchy position: its source's index in New
	Level int // depth within the hierarchy chain
}

// Factorizer stores the factorised attribute matrix: one chain per hierarchy
// at its drill-down depth, in source order (callers put the hierarchy to
// drill down last), plus the cross-hierarchy scalars that make the decomposed
// aggregates O(1) to combine.
type Factorizer struct {
	chains     []*Chain  // per hierarchy position
	attrs      []Attr    // flattened attribute order
	attrOfHier [][]int   // attr indices per hierarchy position
	leaves     []float64 // per hierarchy position
	prodBefore []float64 // product of leaves of hierarchies before position
	prodAfter  []float64 // product of leaves of hierarchies after position
	n          float64   // total implicit row count
}

// New builds a factorizer over the given hierarchies at the given depths
// (attribute counts; 0 selects depth 1). Hierarchy position pos is
// sources[pos]. A Factorizer is read-only after New: no method writes to it,
// so goroutines may share one, and the engine memoises one per drilled view.
func New(sources []*Source, depths []int) (*Factorizer, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("factor: no hierarchies")
	}
	nh := len(sources)
	f := &Factorizer{
		chains:     make([]*Chain, nh),
		attrOfHier: make([][]int, nh),
		leaves:     make([]float64, nh),
		prodBefore: make([]float64, nh),
		prodAfter:  make([]float64, nh),
	}
	for pos, src := range sources {
		d := 1
		if depths != nil && depths[pos] > 0 {
			d = depths[pos]
		}
		ch, err := BuildChain(src, d)
		if err != nil {
			return nil, err
		}
		f.chains[pos] = ch
		f.leaves[pos] = float64(ch.Leaves())
		for l, lv := range ch.Levels {
			f.attrOfHier[pos] = append(f.attrOfHier[pos], len(f.attrs))
			f.attrs = append(f.attrs, Attr{Name: lv.Attr, Hier: pos, Level: l})
		}
	}
	p := 1.0
	for pos := range nh {
		f.prodBefore[pos] = p
		p *= f.leaves[pos]
	}
	f.n = p
	p = 1.0
	for pos := nh - 1; pos >= 0; pos-- {
		f.prodAfter[pos] = p
		p *= f.leaves[pos]
	}
	return f, nil
}

// Attrs returns the flattened attribute order.
func (f *Factorizer) Attrs() []Attr { return f.attrs }

// NumAttrs returns the number of attributes (matrix columns).
func (f *Factorizer) NumAttrs() int { return len(f.attrs) }

// N returns the implicit row count of the attribute matrix: the product of
// the hierarchies' path counts. It is returned as float64 because the count
// is exponential in the number of hierarchies and can exceed int range.
func (f *Factorizer) N() float64 { return f.n }

// NumHierarchies returns the number of hierarchies.
func (f *Factorizer) NumHierarchies() int { return len(f.chains) }

// Chain returns the chain at hierarchy position pos.
func (f *Factorizer) Chain(pos int) *Chain { return f.chains[pos] }

// HierarchyName returns the name of the hierarchy at position pos.
func (f *Factorizer) HierarchyName(pos int) string { return f.chains[pos].Name }

// AttrIndex returns the flattened index of the named attribute.
func (f *Factorizer) AttrIndex(name string) (int, bool) {
	for i, a := range f.attrs {
		if a.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Leaves returns the path count of the hierarchy at position pos.
func (f *Factorizer) Leaves(pos int) float64 { return f.leaves[pos] }

// ProdBefore returns the product of leaf counts of hierarchies before pos.
func (f *Factorizer) ProdBefore(pos int) float64 { return f.prodBefore[pos] }

// SufTotal returns TOTAL_{A_i}: the size of the suffix join starting at
// attribute i. Within a hierarchy it is independent of the level (every
// value expands to its leaf paths), so it equals leaves × prodAfter.
func (f *Factorizer) SufTotal(attr int) float64 {
	a := f.attrs[attr]
	return f.leaves[a.Hier] * f.prodAfter[a.Hier]
}

// CountVals returns COUNT_{A_i}: for each distinct value of attribute i (in
// path-sorted order, its level's Codes), its multiplicity in the suffix join.
func (f *Factorizer) CountVals(attr int) []float64 {
	a := f.attrs[attr]
	ext := f.Chain(a.Hier).Levels[a.Level].Ext
	counts := make([]float64, len(ext))
	pa := f.prodAfter[a.Hier]
	for i, e := range ext {
		counts[i] = float64(e) * pa
	}
	return counts
}

// Cof returns COF_{A_i,A_j}[(a,b)] for i < j as a dense traversal callback:
// fn is invoked once per (value-of-i, value-of-j) pair with a nonzero count.
// For same-hierarchy pairs this walks the chain (ancestor linkage); for
// cross-hierarchy pairs the count factorises as Count_i[a]·Count_j[b] /
// SufTotal(j) — the "never materialize the cartesian product" optimization —
// and the traversal is the full cross product of distinct values (use
// CofCrossTerms to stay factorised).
func (f *Factorizer) Cof(i, j int, fn func(vi, vj int, count float64)) {
	if i >= j {
		panic(fmt.Sprintf("factor: Cof requires i < j, got %d, %d", i, j))
	}
	ai, aj := f.attrs[i], f.attrs[j]
	if ai.Hier == aj.Hier {
		ch := f.Chain(ai.Hier)
		lv := ch.Levels[aj.Level]
		pa := f.prodAfter[ai.Hier]
		// Walk level-j values; the level-i ancestor is reached via Parent
		// linkage in (aj.Level - ai.Level) steps.
		for vj := range lv.Codes {
			vi := vj
			for l := aj.Level; l > ai.Level; l-- {
				vi = ch.Levels[l].Parent[vi]
			}
			fn(vi, vj, float64(lv.Ext[vj])*pa)
		}
		return
	}
	ci, cj := f.CountVals(i), f.CountVals(j)
	st := f.SufTotal(j)
	for vi := range ci {
		for vj := range cj {
			fn(vi, vj, ci[vi]*cj[vj]/st)
		}
	}
}

// SameHierarchy reports whether attributes i and j are in the same hierarchy.
func (f *Factorizer) SameHierarchy(i, j int) bool {
	return f.attrs[i].Hier == f.attrs[j].Hier
}
