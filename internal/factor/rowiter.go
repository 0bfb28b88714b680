package factor

import (
	"fmt"
	"math"
)

// Change is one attribute-value update emitted by the row iterator: attribute
// Attr now holds the value at index Val of its level.
type Change struct {
	Attr int
	Val  int
}

// RowIter enumerates the rows of the implicit attribute matrix (the cross
// product of hierarchy paths) in sorted order, yielding only the difference
// from the previous row — Algorithm 1. The rightmost hierarchy advances
// fastest; within a hierarchy, advancing the leaf propagates to exactly the
// ancestor levels whose value changed.
type RowIter struct {
	f       *Factorizer
	leaf    []int // current leaf index per hierarchy position
	cur     []int // current value index per attribute
	buf     []Change
	started bool
	done    bool
}

// RowCount returns the implicit row count as an int, or an error when it
// exceeds the addressable range (the factorised operators never need to
// enumerate rows in that regime).
func (f *Factorizer) RowCount() (int, error) {
	if f.n > math.MaxInt32 {
		return 0, fmt.Errorf("factor: row count %g too large to enumerate", f.n)
	}
	return int(f.n), nil
}

// Rows returns a fresh row iterator.
func (f *Factorizer) Rows() *RowIter {
	return &RowIter{
		f:    f,
		leaf: make([]int, f.NumHierarchies()),
		cur:  make([]int, f.NumAttrs()),
	}
}

// Cur returns the current value index for every attribute. The slice aliases
// iterator state and is valid until the next call to Next.
func (it *RowIter) Cur() []int { return it.cur }

// Next advances to the next row and returns the changes relative to the
// previous row. The first call returns every attribute. It returns nil when
// the iteration is exhausted.
func (it *RowIter) Next() []Change {
	f := it.f
	it.buf = it.buf[:0]
	if it.done {
		return nil
	}
	if !it.started {
		it.started = true
		for pos := 0; pos < f.NumHierarchies(); pos++ {
			it.emitHierarchy(pos, -1, 0)
		}
		return it.buf
	}
	// Odometer: advance the last hierarchy; carry left on overflow.
	pos := f.NumHierarchies() - 1
	for pos >= 0 {
		ch := f.Chain(pos)
		if it.leaf[pos]+1 < ch.Leaves() {
			old := it.leaf[pos]
			it.leaf[pos]++
			it.emitHierarchy(pos, old, it.leaf[pos])
			// Hierarchies to the right wrapped to leaf 0.
			for p := pos + 1; p < f.NumHierarchies(); p++ {
				old := it.leaf[p]
				it.leaf[p] = 0
				it.emitHierarchy(p, old, 0)
			}
			return it.buf
		}
		pos--
	}
	it.done = true
	return nil
}

// emitHierarchy records the attribute changes of hierarchy pos when its leaf
// moves from oldLeaf to newLeaf. oldLeaf = -1 emits every level.
func (it *RowIter) emitHierarchy(pos, oldLeaf, newLeaf int) {
	ch := it.f.Chain(pos)
	attrIdx := it.f.attrOfHier[pos]
	for l := 0; l < ch.Depth(); l++ {
		nv := ch.AncestorIdx(l, newLeaf)
		if oldLeaf >= 0 && ch.AncestorIdx(l, oldLeaf) == nv {
			continue
		}
		a := attrIdx[l]
		it.cur[a] = nv
		it.buf = append(it.buf, Change{Attr: a, Val: nv})
	}
}

// Transitions tabulates what the row iterator emits for one hierarchy. Which
// attribute values change when a hierarchy's leaf moves depends on that
// hierarchy alone, and the odometer only ever moves a leaf forward by one or
// wraps it from the last leaf back to the first, so Leaves()+1 change lists
// describe every row of the cross product in O(leaves·depth) space. Operators
// that visit all rows replay these lists instead of driving a RowIter; the
// lists are RowIter's own output, so it stays the one definition of row order.
type Transitions struct {
	Enter []Change   // the first row: every level takes the value on leaf 0's path
	Step  [][]Change // Step[l]: the leaf moves from l to l+1
	Wrap  []Change   // the leaf returns from the last leaf to leaf 0
}

// Transitions tabulates the hierarchy at position pos.
func (f *Factorizer) Transitions(pos int) Transitions {
	it := f.Rows()
	leaves := f.Chain(pos).Leaves()
	off := make([]int, 1, leaves+2)
	emit := func(oldLeaf, newLeaf int) {
		it.emitHierarchy(pos, oldLeaf, newLeaf)
		off = append(off, len(it.buf))
	}
	emit(-1, 0)
	for l := 0; l+1 < leaves; l++ {
		emit(l, l+1)
	}
	emit(leaves-1, 0)
	list := func(i int) []Change { return it.buf[off[i]:off[i+1]:off[i+1]] }
	t := Transitions{Enter: list(0), Step: make([][]Change, leaves-1), Wrap: list(leaves)}
	for l := range t.Step {
		t.Step[l] = list(1 + l)
	}
	return t
}

// RowIndexOf returns the row index of the given per-attribute value indices
// in iteration order. Used to align dense y vectors with the matrix rows.
func (f *Factorizer) RowIndexOf(leafPerHier []int) int {
	idx := 0
	for pos := 0; pos < f.NumHierarchies(); pos++ {
		idx = idx*int(f.leaves[pos]) + leafPerHier[pos]
	}
	return idx
}

// LeafIndex returns the leaf (deepest-level) value index of value v in the
// hierarchy at position pos, or -1 when absent. It is the string edge: a
// reader holding the γ's codes reads the deepest level's Index instead. The
// first call builds its source's string index.
func (f *Factorizer) LeafIndex(pos int, v string) int {
	ch := f.Chain(pos)
	return ch.src.position(ch.Depth()-1, v)
}
