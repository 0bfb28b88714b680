package data

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// TupleIndex numbers distinct code tuples in order of first appearance — the
// one bucketing step under the row-scan group-by (internal/agg), hierarchy
// path extraction (internal/factor), the merge of per-shard group-bys
// (internal/core) and the cube build (internal/cube: a hierarchy prefix's
// paths, then a lattice level's cells as tuples of path ids). Tuples are keyed
// by their codes, never by strings.
//
// A key is made of the codes of the key attributes. Over a dataset
// ((*Dataset).NewTupleIndex) those are the grouping's attributes less every
// one that a deeper attribute of the grouping in the same hierarchy
// determines, by FDs Validate has verified over the dataset's current rows:
// [region district village] is keyed by village alone. The determined codes
// follow from the key on every row, so the tuples, their ids and their order
// are what keying every attribute gives; a new tuple still records every
// attribute's code. Over caller-supplied columns or code tuples
// (NewTupleIndex) every attribute is a key attribute — the shard gather's
// merge relies on that, since each shard verified its FDs over its own rows
// only.
//
// How a key finds its id is chosen once, in the constructor, from what the
// code observes — the key attributes' sizes and the number of tuples the
// caller says it will feed — never from a flag:
//
//   - table: the mixed-radix composite of the key codes indexes a []int32
//     holding id+1, when the key space (the product of the key attributes'
//     sizes) is at most TableSpacePerTuple times the fed count. One array read
//     per tuple.
//   - narrow: the same uint64 composite probes a map, when the key space fits
//     uint64 but not a table of that size.
//   - wide: the codes' bytes as a string probe a map, when it does not fit
//     uint64 (which no hierarchy prefix of realistic data reaches).
//
// Whichever it is, ids are dense and follow first appearance, so whatever a
// caller accumulates per id accumulates in the order tuples are fed — results
// are bit-identical across the three. With no attributes there is only the one
// empty tuple.
type TupleIndex struct {
	dicts [][]string // the attributes' dictionaries, for an index over a dataset's
	cols  [][]uint32 // every attribute's code column, which a new tuple's codes are copied from
	key   []int      // the positions of the attributes a key is made of
	// keyCols are the key attributes' code columns, which AddRows keys on, and
	// radix their sizes, the key's mixed radix.
	keyCols [][]uint32
	radix   []uint64
	// table, narrow and wide map a tuple's key to its id; exactly one is in use.
	table  []int32 // id+1 by key, 0 for a key not seen
	narrow map[uint64]int
	wide   map[string]int
	keys   []uint64 // AddRows' scratch: one block's narrow keys
	buf    []byte   // the wide key under construction
	n      int
	tuples []uint32 // every tuple's codes, tuple-major in id order
}

// TableSpacePerTuple is how many table slots a fed tuple may cost before a
// map takes over (and, in agg.Order, a sort key before a radix sort does).
// BenchmarkScanGroupBy (internal/agg) sweeps the ratio from 1/64 to 64: whole
// scans through the table are 1.4 to 3.8 times as fast as through the map at
// every one, so no crossing in time bounds it. Memory does: 4 caps the table
// at 16 bytes per fed tuple, about one map entry's cost.
const TableSpacePerTuple = 4

// blockRows is how many rows AddRows keys at a time: the block's keys (8 KB)
// and its window of every code column stay in the first-level cache.
const blockRows = 1024

// NewTupleIndex starts an empty index over the given attributes of d, fed by
// row range (AddRows). feed is the number of rows the caller will add — the
// length of its range, not of the dataset. The key leaves out every attribute
// another of attrs determines over d's rows (keyAttrs).
func (d *Dataset) NewTupleIndex(attrs []string, feed int) *TupleIndex {
	dicts, cols, sizes := make([][]string, len(attrs)), make([][]uint32, len(attrs)), make([]int, len(attrs))
	for i, a := range attrs {
		dicts[i], cols[i] = d.DimCodes(a)
		sizes[i] = len(dicts[i])
	}
	t := newTupleIndex(sizes, cols, d.keyAttrs(attrs), feed)
	t.dicts = dicts
	return t
}

// keyAttrs returns the positions of the attributes a tuple of attrs must be
// keyed by over d's rows: all but those a deeper attribute of attrs in the
// same hierarchy determines, through FDs Validate has verified on every level
// between the two. Such an attribute's code is a function of the deeper one's
// on every row, so leaving it out merges no two tuples. A dataset that was
// never validated, or whose rows were written since, keys every attribute.
func (d *Dataset) keyAttrs(attrs []string) []int {
	key := make([]int, 0, len(attrs))
	for i, a := range attrs {
		if !d.determined(a, attrs) {
			key = append(key, i)
		}
	}
	return key
}

// determined reports whether a deeper attribute of attrs in a's hierarchy
// determines a through verified FDs.
func (d *Dataset) determined(a string, attrs []string) bool {
	h, ok := d.HierarchyOf(a)
	if !ok {
		return false
	}
	for l := h.Level(a) + 1; l < len(h.Attrs); l++ {
		if _, verified := d.fds.Load([2]string{h.Attrs[l], h.Attrs[l-1]}); !verified {
			return false
		}
		if slices.Contains(attrs, h.Attrs[l]) {
			return true
		}
	}
	return false
}

// NewTupleIndex starts an empty index over tuples of one code below each of
// sizes, feed of them: the rows of the code columns cols (AddRows), or with nil
// cols whatever code tuples the caller hands over (AddCodes). Every attribute
// is part of the key.
func NewTupleIndex(sizes []int, cols [][]uint32, feed int) *TupleIndex {
	key := make([]int, len(sizes))
	for i := range key {
		key[i] = i
	}
	return newTupleIndex(sizes, cols, key, feed)
}

// newTupleIndex starts an index over attributes of the given sizes and code
// columns (nil for AddCodes) whose key is made of the attributes at the
// positions key; the look-up is chosen from the key attributes' sizes alone.
func newTupleIndex(sizes []int, cols [][]uint32, key []int, feed int) *TupleIndex {
	t := &TupleIndex{cols: cols, key: key, radix: make([]uint64, len(key))}
	if cols != nil {
		t.keyCols = make([][]uint32, len(key))
	}
	space, fits := uint64(1), true
	for i, a := range key {
		t.radix[i] = uint64(sizes[a])
		if cols != nil {
			t.keyCols[i] = cols[a]
		}
		// A size of zero means an empty column: there is no tuple to add.
		if t.radix[i] > 1 && fits {
			fits = space <= math.MaxUint64/t.radix[i]
			space *= t.radix[i]
		}
	}
	switch {
	case !fits:
		t.wide = make(map[string]int)
		t.buf = make([]byte, 4*len(key))
	// Ids are int32 and a slot holds id+1, so a table cannot number more than
	// MaxInt32-1 tuples.
	case feed >= 0 && feed < math.MaxInt32 && space <= TableSpacePerTuple*uint64(feed):
		t.table = make([]int32, space)
	default:
		t.narrow = make(map[uint64]int)
	}
	return t
}

// AddRows writes the ids of rows [lo, hi)'s tuples (see AddCodes) to
// ids[:hi-lo]. Narrow keys are built a column at a time over a block of rows —
// each code column read sequentially — then probed once per row; a row's codes
// are copied only when its tuple is new, as all but one row per group is not.
func (t *TupleIndex) AddRows(lo, hi int, ids []int32) {
	for ; lo < hi; lo += blockRows {
		n := min(blockRows, hi-lo)
		t.addBlock(lo, lo+n, ids[:n])
		ids = ids[n:]
	}
}

func (t *TupleIndex) addBlock(lo, hi int, ids []int32) {
	if t.wide != nil {
		for row := lo; row < hi; row++ {
			for i, cs := range t.keyCols {
				binary.LittleEndian.PutUint32(t.buf[4*i:], cs[row])
			}
			id, ok := t.wide[string(t.buf)]
			if !ok {
				id = t.addRow(row)
				t.wide[string(t.buf)] = id
			}
			ids[row-lo] = int32(id)
		}
		return
	}
	if cap(t.keys) < hi-lo {
		t.keys = make([]uint64, hi-lo)
	}
	keys := t.keys[:hi-lo]
	clear(keys)
	for i, cs := range t.keyCols {
		radix := t.radix[i]
		for j, c := range cs[lo:hi] {
			keys[j] = keys[j]*radix + uint64(c)
		}
	}
	if t.table != nil {
		for j, k := range keys {
			slot := &t.table[k]
			if *slot == 0 {
				*slot = int32(t.addRow(lo+j)) + 1
			}
			ids[j] = *slot - 1
		}
		return
	}
	for j, k := range keys {
		id, ok := t.narrow[k]
		if !ok {
			id = t.addRow(lo + j)
			t.narrow[k] = id
		}
		ids[j] = int32(id)
	}
}

// addRow records row's tuple as new and returns its id.
func (t *TupleIndex) addRow(row int) int {
	for _, cs := range t.cols {
		t.tuples = append(t.tuples, cs[row])
	}
	return t.add()
}

// add numbers the tuple just appended to tuples. AddRows and the table hold
// ids as int32; an index that outgrew them (8 GB of codes per attribute) stops
// here rather than wrap.
func (t *TupleIndex) add() int {
	if t.n == math.MaxInt32 {
		panic("data: TupleIndex: more than MaxInt32 distinct tuples")
	}
	t.n++
	return t.n - 1
}

// AddCodes returns the id of the tuple with the given codes, one per
// attribute. Ids are dense and assigned in order of first appearance, so a new
// tuple's id equals Len() before the call.
func (t *TupleIndex) AddCodes(codes []uint32) int {
	if t.wide != nil {
		for i, a := range t.key {
			binary.LittleEndian.PutUint32(t.buf[4*i:], codes[a])
		}
		id, ok := t.wide[string(t.buf)]
		if !ok {
			t.tuples = append(t.tuples, codes...)
			id = t.add()
			t.wide[string(t.buf)] = id
		}
		return id
	}
	k := uint64(0)
	for i, a := range t.key {
		k = k*t.radix[i] + uint64(codes[a])
	}
	if t.table != nil {
		slot := &t.table[k]
		if *slot == 0 {
			t.tuples = append(t.tuples, codes...)
			*slot = int32(t.add()) + 1
		}
		return int(*slot - 1)
	}
	id, ok := t.narrow[k]
	if !ok {
		t.tuples = append(t.tuples, codes...)
		id = t.add()
		t.narrow[k] = id
	}
	return id
}

// Len returns the number of distinct tuples added so far.
func (t *TupleIndex) Len() int { return t.n }

// Codes returns the attributes' dictionaries (nil for an index not over a
// dataset's) and every tuple's codes into them, tuple-major in id order with
// one code per attribute.
func (t *TupleIndex) Codes() (dicts [][]string, codes []uint32) {
	return t.dicts, t.tuples
}

// digitBits is the width of one SortKeys pass: a digit's 2,048 counters stay
// in the first-level cache.
const digitBits = 11

// SortKeys sorts keys ascending, stably, and permutes ids alongside; no key
// exceeds maxKey. It is an LSD radix sort on 11-bit digits up to maxKey's
// highest bit: one pass over the keys counts every digit, and a digit all keys
// share costs no pass.
func SortKeys(keys []uint64, ids []int32, maxKey uint64) {
	const size = 1 << digitBits
	n, digits := len(keys), (bits.Len64(maxKey)+digitBits-1)/digitBits
	if n < 2 {
		return
	}
	hist := make([]int32, digits*size)
	for _, key := range keys {
		for d := range digits {
			hist[d*size+int(key>>(d*digitBits)&(size-1))]++
		}
	}
	out, outIDs := keys, ids
	tk, ti := make([]uint64, n), make([]int32, n)
	for d := range digits {
		h, shift := hist[d*size:(d+1)*size], d*digitBits
		if h[keys[0]>>shift&(size-1)] == int32(n) {
			continue
		}
		sum := int32(0)
		for i, c := range h {
			h[i], sum = sum, sum+c
		}
		for i, key := range keys {
			at := &h[key>>shift&(size-1)]
			tk[*at], ti[*at] = key, ids[i]
			*at++
		}
		keys, tk, ids, ti = tk, keys, ti, ids
	}
	copy(out, keys)
	copy(outIDs, ids)
}

// Values decodes tuple id of an index over a dataset's attributes into its
// dimension values, one per attribute — nil for the empty tuple, as DecodeKey
// has it.
func (t *TupleIndex) Values(id int) []string {
	k := len(t.dicts)
	if k == 0 {
		return nil
	}
	vals := make([]string, k)
	for i, c := range t.tuples[id*k : (id+1)*k] {
		vals[i] = t.dicts[i][c]
	}
	return vals
}
