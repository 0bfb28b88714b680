// Package factor implements Reptile's factorised representation of the
// attribute matrix (§2.2, §3.4, Appendix C): per-hierarchy chain relations in
// BCNF, the decomposed count aggregates TOTAL / COUNT / COF (§4.2.1) read off
// the chains (COUNT from each level's leaf-extension counts, cross-hierarchy
// COF as a product of COUNTs, never stored), a row iterator over the
// implicit cross-product matrix (Algorithm 1), and the per-hierarchy
// transition tables that let operators replay it without iterating.
// internal/fmatrix builds the served XᵀX and matrix products on these reads.
//
// A hierarchy's Source is the coded γ over its attributes, kept in codes: the
// group-by is already in path order and coded against the dataset's
// dictionaries, so one pass over its code table lays out every level, and a
// per-level code → position table both checks the hierarchy's functional
// dependencies and maps a group's code to its leaf. Strings appear only at
// the string edges, NewSource and LeafIndex; a reader of a level's values
// reads its codes, against the γ's dictionary (Level.Dict).
//
// Attributes are indexed 0..d-1 left to right, hierarchy by hierarchy (in
// source order, the drill-down hierarchy last) and least to most specific
// within a hierarchy. With that convention the paper's suffix aggregates
// translate to:
//
//	SufTotal(i) = TOTAL_{A_i}: size of the join of every relation at or
//	              right of attribute i.
//	Count(i)[v] = COUNT_{A_i}[v]: multiplicity of value v in that join.
//	COF(i,j)    = per-(a_i, a_j) counts; cross-hierarchy COF factorises as
//	              Count(i)[a]·Count(j)[b]/SufTotal(j) and is never
//	              materialized.
package factor

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/agg"
	"repro/internal/data"
)

// Source is one hierarchy's distinct full-depth paths, kept as the coded γ
// over its attributes (an agg.Result, in path order: lexicographic by value,
// attribute by attribute). Its levels are the chain relations of the deepest
// chain without Ext; a chain at any depth reuses its first levels. A Source is
// read-only once built, except for the string index LeafIndex builds on its
// first call, under a sync.Once.
type Source struct {
	Name   string
	Attrs  []string
	levels []Level // Ext nil

	byValOnce sync.Once
	byVal     []map[string]int // per level, value → position; built by LeafIndex
}

// NewCodedSource builds hierarchy name's source from paths, the coded γ over
// its attributes, in one pass and without decoding: a level's node starts
// where a path's prefix through that level first differs from the previous
// path's. Each level's code → position table is the check of the hierarchy's
// functional dependencies: in path order a value under one parent enters its
// level once, so a code that enters twice has two parents.
func NewCodedSource(name string, paths *agg.Result) (*Source, error) {
	k := len(paths.Attrs)
	if k == 0 {
		return nil, fmt.Errorf("factor: hierarchy %q has no attributes", name)
	}
	s := &Source{Name: name, Attrs: paths.Attrs, levels: make([]Level, k)}
	for l := range s.levels {
		lv := &s.levels[l]
		lv.Attr, lv.Dict = paths.Attrs[l], paths.Dicts[l]
		lv.Index = make([]int32, len(lv.Dict))
		for c := range lv.Index {
			lv.Index[c] = -1
		}
	}
	var prev []uint32
	for gi := range paths.Len() {
		path := paths.Codes[gi*k : (gi+1)*k]
		div := 0
		for prev != nil && div < k && path[div] == prev[div] {
			div++
		}
		for l := div; l < k; l++ {
			lv, c := &s.levels[l], path[l]
			if lv.Index[c] >= 0 {
				return nil, fmt.Errorf("factor: hierarchy %q: FD violation: %s=%q on two paths", name, lv.Attr, lv.Dict[c])
			}
			lv.Index[c] = int32(len(lv.Codes))
			lv.Codes = append(lv.Codes, c)
			if l > 0 {
				lv.Parent = append(lv.Parent, len(s.levels[l-1].Codes)-1)
			}
		}
		prev = path
	}
	for l := 0; l+1 < k; l++ {
		lv := &s.levels[l]
		lv.ChildOff = make([]int, len(lv.Codes)+1)
		for _, parent := range s.levels[l+1].Parent {
			lv.ChildOff[parent+1]++
		}
		for i := 1; i < len(lv.ChildOff); i++ {
			lv.ChildOff[i] += lv.ChildOff[i-1]
		}
	}
	return s, nil
}

// NewSource builds a source from raw string paths (callers that hold no
// codes: tests and the experiments' synthetic hierarchies), duplicates
// allowed: it interns them through agg.NewResult into NewCodedSource.
func NewSource(name string, attrs []string, paths [][]string) (*Source, error) {
	groups := make([]agg.Group, len(paths))
	for i, p := range paths {
		if len(p) != len(attrs) {
			return nil, fmt.Errorf("factor: hierarchy %q: path %v has %d values, want %d", name, p, len(p), len(attrs))
		}
		groups[i].Vals = p
	}
	return NewCodedSource(name, agg.NewResult(attrs, "", groups))
}

// SourceFromDataset builds hierarchy h's source from the paths present in d:
// the groups of agg.GroupByCodes over h's attributes and d's first measure,
// read from d's cube when it carries one and by row scan otherwise.
func SourceFromDataset(d *data.Dataset, h data.Hierarchy) (*Source, error) {
	measures := d.MeasureNames()
	if len(measures) == 0 {
		return nil, fmt.Errorf("factor: dataset %q has no measure to group hierarchy %q by", d.Name, h.Name)
	}
	return NewCodedSource(h.Name, agg.GroupByCodes(d, h.Attrs, measures[0]))
}

// Len returns the number of distinct full-depth paths.
func (s *Source) Len() int { return len(s.levels[len(s.levels)-1].Codes) }

// position returns the index of value v at level l, or -1.
func (s *Source) position(l int, v string) int {
	s.byValOnce.Do(func() {
		s.byVal = make([]map[string]int, len(s.levels))
		for l, lv := range s.levels {
			s.byVal[l] = make(map[string]int, len(lv.Codes))
			for i, c := range lv.Codes {
				s.byVal[l][lv.Dict[c]] = i
			}
		}
	})
	if i, ok := s.byVal[l][v]; ok {
		return i
	}
	return -1
}

// Level is one attribute's node layer in a chain, in path order: the codes
// present (their values are Dict[Codes[i]]), the parent linkage, child
// offsets into the next level, and the within-hierarchy leaf-extension counts
// Ext. Every slice but Ext is its source's, shared by the chains of every
// depth.
type Level struct {
	Attr     string
	Dict     []string // the dictionary Codes index: the γ's, shared
	Codes    []uint32 // the codes present, in path order
	Index    []int32  // code → its position in Codes, -1 when absent; len(Dict)
	Parent   []int    // index into previous level's Codes; nil at level 0
	ChildOff []int    // len(Codes)+1 offsets into next level; nil at the last level
	Ext      []int    // leaf paths below each value (1 at the deepest level)
}

// Chain is a hierarchy truncated to its current drill-down depth: the BCNF
// chain relations of Appendix C, stored level by level in path order.
type Chain struct {
	Name   string
	Attrs  []string
	Levels []Level
	// ancIdx[l][leaf] is the index into Levels[l] of the level-l ancestor of
	// the leaf'th deepest-level value.
	ancIdx [][]int
	src    *Source
}

// Depth returns the number of attributes in the chain.
func (c *Chain) Depth() int { return len(c.Levels) }

// Leaves returns the number of distinct paths (deepest-level values).
func (c *Chain) Leaves() int { return len(c.Levels[len(c.Levels)-1].Codes) }

// AncestorIdx returns the index (into Levels[level]) of the level-l ancestor
// of leaf leafIdx.
func (c *Chain) AncestorIdx(level, leafIdx int) int { return c.ancIdx[level][leafIdx] }

// BuildChain derives the chain at the given depth (1-based attribute count)
// from a source: its first depth levels, with the deepest one's child offsets
// dropped, plus what depends on the depth — Ext and the ancestor index, both
// O(paths × depth).
func BuildChain(src *Source, depth int) (*Chain, error) {
	if depth < 1 || depth > len(src.Attrs) {
		return nil, fmt.Errorf("factor: hierarchy %q: depth %d out of range 1..%d", src.Name, depth, len(src.Attrs))
	}
	if src.Len() == 0 {
		return nil, fmt.Errorf("factor: hierarchy %q has no paths", src.Name)
	}
	c := &Chain{Name: src.Name, Attrs: src.Attrs[:depth], Levels: slices.Clone(src.levels[:depth]), src: src}
	last := &c.Levels[depth-1]
	last.ChildOff = nil
	last.Ext = make([]int, len(last.Codes))
	for i := range last.Ext {
		last.Ext[i] = 1
	}
	for l := depth - 1; l > 0; l-- {
		lv := &c.Levels[l]
		up := &c.Levels[l-1]
		up.Ext = make([]int, len(up.Codes))
		for i, parent := range lv.Parent {
			up.Ext[parent] += lv.Ext[i]
		}
	}
	// Leaf ancestor index per level.
	leaves := c.Leaves()
	c.ancIdx = make([][]int, depth)
	c.ancIdx[depth-1] = make([]int, leaves)
	for j := 0; j < leaves; j++ {
		c.ancIdx[depth-1][j] = j
	}
	for l := depth - 2; l >= 0; l-- {
		c.ancIdx[l] = make([]int, leaves)
		childLevel := c.Levels[l+1]
		for j := 0; j < leaves; j++ {
			c.ancIdx[l][j] = childLevel.Parent[c.ancIdx[l+1][j]]
		}
	}
	return c, nil
}
