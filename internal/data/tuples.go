package data

import (
	"encoding/binary"
	"math"
)

// TupleIndex numbers the distinct value tuples of a set of dimension columns
// in order of first appearance — the bucketing step shared by the row-scan
// group-by (internal/agg) and hierarchy path extraction (internal/factor).
// Rows are keyed by their dictionary codes, never by strings. The key
// encoding is chosen from the dictionary sizes: a mixed-radix uint64
// composite while their product fits (it always does for hierarchy prefixes
// of realistic data), else the codes' bytes as a string. With no attributes
// every row carries the one empty tuple.
type TupleIndex struct {
	dicts [][]string
	codes [][]uint32
	fits  bool // the radix product fits uint64: key rows by narrow
	// narrow and wide map a tuple's key to its id; exactly one is in use.
	narrow map[uint64]int
	wide   map[string]int
	buf    []byte
	first  []int // first row of each tuple, by id
}

// NewTupleIndex starts an empty index over the given attributes of d.
func (d *Dataset) NewTupleIndex(attrs []string) *TupleIndex {
	t := &TupleIndex{
		dicts: make([][]string, len(attrs)),
		codes: make([][]uint32, len(attrs)),
		fits:  true,
	}
	space := uint64(1)
	for i, a := range attrs {
		t.dicts[i], t.codes[i] = d.DimCodes(a)
		// An empty dictionary means an empty column: there is no row to add.
		if size := uint64(len(t.dicts[i])); size > 1 && t.fits {
			t.fits = space <= math.MaxUint64/size
			space *= size
		}
	}
	if t.fits {
		t.narrow = make(map[uint64]int)
	} else {
		t.wide = make(map[string]int)
		t.buf = make([]byte, 4*len(attrs))
	}
	return t
}

// Add returns the id of row's tuple. Ids are dense and assigned in order of
// first appearance, so a new tuple's id equals Len() before the call.
func (t *TupleIndex) Add(row int) int {
	if t.fits {
		k := uint64(0)
		for i, cs := range t.codes {
			k = k*uint64(len(t.dicts[i])) + uint64(cs[row])
		}
		id, ok := t.narrow[k]
		if !ok {
			id = len(t.first)
			t.narrow[k] = id
			t.first = append(t.first, row)
		}
		return id
	}
	for i, cs := range t.codes {
		binary.LittleEndian.PutUint32(t.buf[4*i:], cs[row])
	}
	id, ok := t.wide[string(t.buf)]
	if !ok {
		id = len(t.first)
		t.wide[string(t.buf)] = id
		t.first = append(t.first, row)
	}
	return id
}

// Len returns the number of distinct tuples added so far.
func (t *TupleIndex) Len() int { return len(t.first) }

// Codes returns the attributes' dictionaries and every tuple's codes into
// them, tuple-major in id order with one code per attribute.
func (t *TupleIndex) Codes() (dicts [][]string, codes []uint32) {
	codes = make([]uint32, 0, len(t.first)*len(t.codes))
	for _, row := range t.first {
		for _, cs := range t.codes {
			codes = append(codes, cs[row])
		}
	}
	return t.dicts, codes
}

// Values decodes tuple id into its dimension values, one per attribute — nil
// for the empty tuple, as DecodeKey has it.
func (t *TupleIndex) Values(id int) []string {
	if len(t.codes) == 0 {
		return nil
	}
	row := t.first[id]
	vals := make([]string, len(t.codes))
	for i, cs := range t.codes {
		vals[i] = t.dicts[i][cs[row]]
	}
	return vals
}
