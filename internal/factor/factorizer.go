package factor

import (
	"fmt"
)

// Attr identifies one attribute (column) of the implicit attribute matrix.
type Attr struct {
	Name  string
	Hier  int // position in the current hierarchy order
	Level int // depth within the hierarchy chain
}

// DrillMode selects the §4.4 recomputation strategy benchmarked in Figure 9.
type DrillMode int

const (
	// Static recomputes every hierarchy's aggregates from scratch.
	Static DrillMode = iota
	// Dynamic recomputes only the drilled hierarchy and updates the rest in
	// O(1) via the independence between hierarchies.
	Dynamic
	// CacheDynamic additionally reuses chains cached by earlier evaluations.
	CacheDynamic
)

func (m DrillMode) String() string {
	switch m {
	case Static:
		return "Static"
	case Dynamic:
		return "Dynamic"
	case CacheDynamic:
		return "Cache+Dynamic"
	}
	return fmt.Sprintf("DrillMode(%d)", int(m))
}

// Factorizer stores the factorised attribute matrix: one chain per hierarchy
// at its current drill-down depth, in hierarchy order (the hierarchy to drill
// down is last), plus the cross-hierarchy scalars that make the decomposed
// aggregates O(1) to combine.
type Factorizer struct {
	sources []*Source
	order   []int    // hierarchy order: positions into sources
	depth   []int    // current depth per source
	chains  []*Chain // per source (indexed like sources)
	cache   map[string]*Chain
	mode    DrillMode

	// Derived, recomputed by refresh().
	attrs      []Attr    // flattened attribute order
	attrOfHier [][]int   // attr indices per hierarchy-order position
	leaves     []float64 // per hierarchy-order position
	prodBefore []float64 // product of leaves of hierarchies before position
	prodAfter  []float64 // product of leaves of hierarchies after position
	n          float64   // total implicit row count
}

// New builds a factorizer over the given hierarchies at the given initial
// depths (attribute counts; 0 selects depth 1). The hierarchy order is the
// source order.
func New(sources []*Source, depths []int) (*Factorizer, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("factor: no hierarchies")
	}
	f := &Factorizer{
		sources: sources,
		order:   make([]int, len(sources)),
		depth:   make([]int, len(sources)),
		chains:  make([]*Chain, len(sources)),
		cache:   map[string]*Chain{},
		mode:    CacheDynamic,
	}
	for i := range sources {
		f.order[i] = i
		d := 1
		if depths != nil && depths[i] > 0 {
			d = depths[i]
		}
		f.depth[i] = d
		ch, err := f.buildChain(i, d)
		if err != nil {
			return nil, err
		}
		f.chains[i] = ch
	}
	f.refresh()
	return f, nil
}

// SetMode selects the drill-down recomputation strategy.
func (f *Factorizer) SetMode(m DrillMode) { f.mode = m }

func (f *Factorizer) cacheKey(src, depth int) string {
	return fmt.Sprintf("%s/%d", f.sources[src].Name, depth)
}

func (f *Factorizer) buildChain(src, depth int) (*Chain, error) {
	if f.mode == CacheDynamic {
		if ch, ok := f.cache[f.cacheKey(src, depth)]; ok {
			return ch, nil
		}
	}
	ch, err := BuildChain(f.sources[src], depth)
	if err != nil {
		return nil, err
	}
	if f.mode == CacheDynamic {
		f.cache[f.cacheKey(src, depth)] = ch
	}
	return ch, nil
}

// refresh recomputes the flattened attribute order and cross-hierarchy
// scalars. With Dynamic or CacheDynamic mode this is the only work performed
// for non-drilled hierarchies (O(|H|), the paper's O(1)-per-aggregate
// update); with Static mode callers additionally rebuild every chain.
func (f *Factorizer) refresh() {
	f.attrs = f.attrs[:0]
	f.attrOfHier = make([][]int, len(f.order))
	f.leaves = make([]float64, len(f.order))
	for pos, src := range f.order {
		ch := f.chains[src]
		f.leaves[pos] = float64(ch.Leaves())
		for l := 0; l < ch.Depth(); l++ {
			f.attrOfHier[pos] = append(f.attrOfHier[pos], len(f.attrs))
			f.attrs = append(f.attrs, Attr{Name: ch.Levels[l].Attr, Hier: pos, Level: l})
		}
	}
	f.prodBefore = make([]float64, len(f.order))
	f.prodAfter = make([]float64, len(f.order))
	p := 1.0
	for pos := range f.order {
		f.prodBefore[pos] = p
		p *= f.leaves[pos]
	}
	f.n = p
	p = 1.0
	for pos := len(f.order) - 1; pos >= 0; pos-- {
		f.prodAfter[pos] = p
		p *= f.leaves[pos]
	}
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
func (f *Factorizer) NumHierarchies() int { return len(f.order) }

// Chain returns the chain at hierarchy-order position pos.
func (f *Factorizer) Chain(pos int) *Chain { return f.chains[f.order[pos]] }

// HierarchyName returns the name of the hierarchy at order position pos.
func (f *Factorizer) HierarchyName(pos int) string { return f.sources[f.order[pos]].Name }

// OrderPos returns the hierarchy-order position of the named hierarchy.
func (f *Factorizer) OrderPos(name string) (int, bool) {
	for pos, src := range f.order {
		if f.sources[src].Name == name {
			return pos, true
		}
	}
	return 0, false
}

// AttrIndex returns the flattened index of the named attribute.
func (f *Factorizer) AttrIndex(name string) (int, bool) {
	for i, a := range f.attrs {
		if a.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Leaves returns the path count of the hierarchy at order position pos.
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
// path-sorted order), its multiplicity in the suffix join. The returned
// slices alias internal state and must not be modified.
func (f *Factorizer) CountVals(attr int) (vals []string, counts []float64) {
	a := f.attrs[attr]
	lv := f.Chain(a.Hier).Levels[a.Level]
	counts = make([]float64, len(lv.Vals))
	pa := f.prodAfter[a.Hier]
	for i, e := range lv.Ext {
		counts[i] = float64(e) * pa
	}
	return lv.Vals, counts
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
		for vj := range lv.Vals {
			vi := vj
			for l := aj.Level; l > ai.Level; l-- {
				vi = ch.Levels[l].Parent[vi]
			}
			fn(vi, vj, float64(lv.Ext[vj])*pa)
		}
		return
	}
	_, ci := f.CountVals(i)
	_, cj := f.CountVals(j)
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

// CanDrill reports whether the hierarchy at order position pos has a deeper
// attribute to drill into.
func (f *Factorizer) CanDrill(pos int) bool {
	src := f.order[pos]
	return f.depth[src] < len(f.sources[src].Attrs)
}

// DrillDown extends the hierarchy at order position pos by one attribute and
// moves it to the end of the hierarchy order (the paper requires the
// drill-down hierarchy to be ordered last). Recomputation follows the
// configured DrillMode: the drilled chain is always (re)built; with Static
// every other chain is rebuilt too; with Dynamic/CacheDynamic the other
// hierarchies' aggregates are reused and only the O(|H|) scalars refresh.
func (f *Factorizer) DrillDown(pos int) error {
	if pos < 0 || pos >= len(f.order) {
		return fmt.Errorf("factor: hierarchy position %d out of range", pos)
	}
	src := f.order[pos]
	if !f.CanDrill(pos) {
		return fmt.Errorf("factor: hierarchy %q is fully drilled", f.sources[src].Name)
	}
	f.depth[src]++
	ch, err := f.buildChain(src, f.depth[src])
	if err != nil {
		f.depth[src]--
		return err
	}
	f.chains[src] = ch
	if f.mode == Static {
		for s := range f.sources {
			if s == src {
				continue
			}
			rebuilt, err := BuildChain(f.sources[s], f.depth[s])
			if err != nil {
				return err
			}
			f.chains[s] = rebuilt
		}
	}
	// Move the drilled hierarchy to the end of the order.
	f.order = append(append(f.order[:pos:pos], f.order[pos+1:]...), src)
	f.refresh()
	return nil
}

// Clone returns an independent copy sharing the immutable sources and chain
// cache (chains themselves are immutable once built).
func (f *Factorizer) Clone() *Factorizer {
	c := &Factorizer{
		sources: f.sources,
		order:   append([]int(nil), f.order...),
		depth:   append([]int(nil), f.depth...),
		chains:  append([]*Chain(nil), f.chains...),
		cache:   f.cache,
		mode:    f.mode,
	}
	c.refresh()
	return c
}
