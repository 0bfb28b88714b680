// Package factor implements Reptile's factorised representation of the
// attribute matrix (§2.2, §3.4, Appendix C): per-hierarchy chain relations in
// BCNF, the decomposed count aggregates TOTAL / COUNT / COF (§4.2.1) computed
// with Appendix I's work sharing (ComputeAggregates: COUNT derived down each
// chain, cross-hierarchy COF never materialized), a row iterator over the
// implicit cross-product matrix (Algorithm 1) together with the per-hierarchy
// transition tables that let operators replay it without iterating, and the
// drill-down update strategies Static / Dynamic / Cache+Dynamic of §4.4 and
// Appendix J.
//
// Attributes are indexed 0..d-1 left to right, hierarchy by hierarchy (in
// hierarchy order, the drill-down hierarchy last) and least to most specific
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
	"sort"

	"repro/internal/agg"
	"repro/internal/data"
)

// Source is the full, immutable definition of one hierarchy: its attribute
// chain (least → most specific) and the set of distinct full-depth paths.
// Paths are kept sorted lexicographically; all derived chains are prefixes.
type Source struct {
	Name  string
	Attrs []string
	Paths [][]string // sorted, deduplicated; each has len == len(Attrs)
}

// NewSource builds a source from raw paths, sorting and deduplicating them,
// and checks the hierarchy's functional dependencies: each value determines
// its parent, so the most specific one determines the whole path.
func NewSource(name string, attrs []string, paths [][]string) (*Source, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("factor: hierarchy %q has no attributes", name)
	}
	for _, p := range paths {
		if len(p) != len(attrs) {
			return nil, fmt.Errorf("factor: hierarchy %q: path %v has %d values, want %d", name, p, len(p), len(attrs))
		}
	}
	sorted := make([][]string, len(paths))
	copy(sorted, paths)
	sort.Slice(sorted, func(a, b int) bool { return lessPath(sorted[a], sorted[b]) })
	var dedup [][]string
	for i, p := range sorted {
		if i > 0 && equalPath(p, sorted[i-1]) {
			continue
		}
		dedup = append(dedup, p)
	}
	// No leaf value may appear on two distinct paths.
	leafSeen := make(map[string]int, len(dedup))
	for i, p := range dedup {
		leaf := p[len(p)-1]
		if j, ok := leafSeen[leaf]; ok {
			return nil, fmt.Errorf("factor: hierarchy %q: FD violation: leaf %q on paths %v and %v", name, leaf, dedup[j], p)
		}
		leafSeen[leaf] = i
	}
	// The FD must hold at every level, not just at the leaves.
	for lvl := 1; lvl < len(attrs); lvl++ {
		parent := make(map[string]string)
		for _, p := range dedup {
			if prev, ok := parent[p[lvl]]; ok && prev != p[lvl-1] {
				return nil, fmt.Errorf("factor: hierarchy %q: FD violation: %s=%q under both %q and %q",
					name, attrs[lvl], p[lvl], prev, p[lvl-1])
			}
			parent[p[lvl]] = p[lvl-1]
		}
	}
	return &Source{Name: name, Attrs: attrs, Paths: dedup}, nil
}

// SourceFromDataset builds hierarchy h's source from the paths present in d:
// the groups of agg.GroupBy over h's attributes and d's first measure, read
// from d's cube when it carries one and by row scan otherwise.
func SourceFromDataset(d *data.Dataset, h data.Hierarchy) (*Source, error) {
	measures := d.MeasureNames()
	if len(measures) == 0 {
		return nil, fmt.Errorf("factor: dataset %q has no measure to group hierarchy %q by", d.Name, h.Name)
	}
	groups := agg.GroupBy(d, h.Attrs, measures[0]).Groups
	paths := make([][]string, len(groups))
	for gi, g := range groups {
		paths[gi] = g.Vals
	}
	return NewSource(h.Name, h.Attrs, paths)
}

func lessPath(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func equalPath(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Level is one attribute's node layer in a chain: the distinct values at
// this depth in path-sorted order, the parent linkage, child offsets into
// the next level, and the within-hierarchy leaf-extension counts Ext.
type Level struct {
	Attr     string
	Vals     []string
	Parent   []int // index into previous level's Vals; nil at level 0
	ChildOff []int // len(Vals)+1 offsets into next level; nil at the last level
	Ext      []int // leaf paths below each value (1 at the deepest level)
}

// Chain is a hierarchy truncated to its current drill-down depth: the BCNF
// chain relations of Appendix C, stored level by level in path-sorted order.
type Chain struct {
	Name   string
	Attrs  []string
	Levels []Level
	// ancIdx[l][leaf] is the index into Levels[l].Vals of the level-l
	// ancestor of the leaf'th deepest-level value.
	ancIdx [][]int
	// valIdx[l] maps a value at level l to its index in Levels[l].Vals.
	valIdx []map[string]int
}

// Depth returns the number of attributes in the chain.
func (c *Chain) Depth() int { return len(c.Levels) }

// Leaves returns the number of distinct paths (deepest-level values).
func (c *Chain) Leaves() int { return len(c.Levels[len(c.Levels)-1].Vals) }

// AncestorIdx returns the index (into Levels[level].Vals) of the level-l
// ancestor of leaf leafIdx.
func (c *Chain) AncestorIdx(level, leafIdx int) int { return c.ancIdx[level][leafIdx] }

// BuildChain derives the chain at the given depth (1-based attribute count)
// from a source. The cost is O(paths × depth), which models the paper's
// "recompute the drill-down hierarchy's aggregates" step.
func BuildChain(src *Source, depth int) (*Chain, error) {
	if depth < 1 || depth > len(src.Attrs) {
		return nil, fmt.Errorf("factor: hierarchy %q: depth %d out of range 1..%d", src.Name, depth, len(src.Attrs))
	}
	if len(src.Paths) == 0 {
		return nil, fmt.Errorf("factor: hierarchy %q has no paths", src.Name)
	}
	c := &Chain{Name: src.Name, Attrs: src.Attrs[:depth]}
	c.Levels = make([]Level, depth)
	for l := 0; l < depth; l++ {
		c.Levels[l].Attr = src.Attrs[l]
	}
	// Because paths are sorted, distinct prefixes appear as contiguous runs.
	// prevIdx[l] is the index of the current value at level l.
	prevIdx := make([]int, depth)
	for l := range prevIdx {
		prevIdx[l] = -1
	}
	var prevPath []string
	for _, p := range src.Paths {
		// Find the first level where this path diverges from the previous.
		div := 0
		if prevPath != nil {
			for div < depth && p[div] == prevPath[div] {
				div++
			}
		}
		if prevPath != nil && div == depth {
			continue // same prefix (deeper attrs differ only beyond depth)
		}
		for l := div; l < depth; l++ {
			lv := &c.Levels[l]
			lv.Vals = append(lv.Vals, p[l])
			if l > 0 {
				lv.Parent = append(lv.Parent, prevIdx[l-1])
			}
			prevIdx[l] = len(lv.Vals) - 1
		}
		prevPath = p
	}
	// Child offsets per level from parent linkage.
	for l := 0; l+1 < depth; l++ {
		lv := &c.Levels[l]
		next := &c.Levels[l+1]
		lv.ChildOff = make([]int, len(lv.Vals)+1)
		for _, parent := range next.Parent {
			lv.ChildOff[parent+1]++
		}
		for i := 1; i <= len(lv.Vals); i++ {
			lv.ChildOff[i] += lv.ChildOff[i-1]
		}
	}
	// Ext bottom-up.
	last := &c.Levels[depth-1]
	last.Ext = make([]int, len(last.Vals))
	for i := range last.Ext {
		last.Ext[i] = 1
	}
	for l := depth - 2; l >= 0; l-- {
		lv := &c.Levels[l]
		child := c.Levels[l+1]
		lv.Ext = make([]int, len(lv.Vals))
		for i := range lv.Vals {
			for j := lv.ChildOff[i]; j < lv.ChildOff[i+1]; j++ {
				lv.Ext[i] += child.Ext[j]
			}
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
	c.valIdx = make([]map[string]int, depth)
	for l := 0; l < depth; l++ {
		m := make(map[string]int, len(c.Levels[l].Vals))
		for i, v := range c.Levels[l].Vals {
			m[v] = i // the FDs make a level's values distinct
		}
		c.valIdx[l] = m
	}
	return c, nil
}

// ValueIndex returns the index of value v at the given level, or -1.
func (c *Chain) ValueIndex(level int, v string) int {
	if i, ok := c.valIdx[level][v]; ok {
		return i
	}
	return -1
}
