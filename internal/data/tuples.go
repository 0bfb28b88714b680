package data

import (
	"encoding/binary"
	"math"
)

// TupleIndex numbers distinct code tuples in order of first appearance — the
// bucketing step shared by the row-scan group-by (internal/agg), hierarchy
// path extraction (internal/factor) and the merge of per-shard group-bys
// (internal/core). Tuples are keyed by their dictionary codes, never by
// strings. The key encoding is chosen from the dictionary sizes: a mixed-radix
// uint64 composite while their product fits (it always does for hierarchy
// prefixes of realistic data), else the codes' bytes as a string. With no
// attributes there is only the one empty tuple.
type TupleIndex struct {
	dicts [][]string
	cols  [][]uint32 // the dataset's code columns; nil for NewTupleIndex
	row   []uint32   // Add's scratch: one row's codes
	fits  bool       // the radix product fits uint64: key tuples by narrow
	// narrow and wide map a tuple's key to its id; exactly one is in use.
	narrow map[uint64]int
	wide   map[string]int
	buf    []byte
	tuples []uint32 // every tuple's codes, tuple-major in id order
}

// NewTupleIndex starts an empty index over the given attributes of d, fed by
// row (Add).
func (d *Dataset) NewTupleIndex(attrs []string) *TupleIndex {
	dicts, cols := make([][]string, len(attrs)), make([][]uint32, len(attrs))
	for i, a := range attrs {
		dicts[i], cols[i] = d.DimCodes(a)
	}
	t := NewTupleIndex(dicts)
	t.cols, t.row = cols, make([]uint32, len(attrs))
	return t
}

// NewTupleIndex starts an empty index over tuples of codes into dicts, one per
// attribute, fed by code tuple (AddCodes).
func NewTupleIndex(dicts [][]string) *TupleIndex {
	t := &TupleIndex{dicts: dicts, fits: true}
	space := uint64(1)
	for _, dict := range dicts {
		// An empty dictionary means an empty column: there is no tuple to add.
		if size := uint64(len(dict)); size > 1 && t.fits {
			t.fits = space <= math.MaxUint64/size
			space *= size
		}
	}
	if t.fits {
		t.narrow = make(map[uint64]int)
	} else {
		t.wide = make(map[string]int)
		t.buf = make([]byte, 4*len(dicts))
	}
	return t
}

// Add returns the id of row's tuple (see AddCodes). A tuple seen before under a
// narrow key — all but one row per group — is found without copying its codes.
func (t *TupleIndex) Add(row int) int {
	if t.fits {
		k := uint64(0)
		for i, cs := range t.cols {
			k = k*uint64(len(t.dicts[i])) + uint64(cs[row])
		}
		if id, ok := t.narrow[k]; ok {
			return id
		}
	}
	for i, cs := range t.cols {
		t.row[i] = cs[row]
	}
	return t.AddCodes(t.row)
}

// AddCodes returns the id of the tuple with the given codes, one per
// attribute. Ids are dense and assigned in order of first appearance, so a new
// tuple's id equals Len() before the call.
func (t *TupleIndex) AddCodes(codes []uint32) int {
	if t.fits {
		k := uint64(0)
		for i, c := range codes {
			k = k*uint64(len(t.dicts[i])) + uint64(c)
		}
		id, ok := t.narrow[k]
		if !ok {
			id = len(t.narrow)
			t.narrow[k] = id
			t.tuples = append(t.tuples, codes...)
		}
		return id
	}
	for i, c := range codes {
		binary.LittleEndian.PutUint32(t.buf[4*i:], c)
	}
	id, ok := t.wide[string(t.buf)]
	if !ok {
		id = len(t.wide)
		t.wide[string(t.buf)] = id
		t.tuples = append(t.tuples, codes...)
	}
	return id
}

// Len returns the number of distinct tuples added so far.
func (t *TupleIndex) Len() int { return len(t.narrow) + len(t.wide) }

// Codes returns the attributes' dictionaries and every tuple's codes into
// them, tuple-major in id order with one code per attribute.
func (t *TupleIndex) Codes() (dicts [][]string, codes []uint32) {
	return t.dicts, t.tuples
}

// Values decodes tuple id into its dimension values, one per attribute — nil
// for the empty tuple, as DecodeKey has it.
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
