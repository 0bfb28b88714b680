package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTupleIndexRegime pins how the look-up is chosen from the sizes and the
// fed count: a table while the key space is within TableSpacePerTuple times
// the count and the count within what int32 slots can number, the narrow map
// past either, the wide map past uint64.
func TestTupleIndexRegime(t *testing.T) {
	regime := func(x *TupleIndex) string {
		switch {
		case x.table != nil && x.narrow == nil && x.wide == nil:
			return "table"
		case x.table == nil && x.narrow != nil && x.wide == nil:
			return "narrow"
		case x.table == nil && x.narrow == nil && x.wide != nil:
			return "wide"
		}
		return "none or several"
	}
	for _, tc := range []struct {
		name  string
		sizes []int
		feed  int
		want  string
	}{
		{"no attributes", nil, 1, "table"},
		{"nothing fed", []int{3}, 0, "narrow"},
		{"at the bound", []int{4, 25}, 25, "table"},
		{"one past the bound", []int{101}, 25, "narrow"},
		{"empty and one-entry dictionaries", []int{0, 1, 8}, 2, "table"},
		{"largest count a table numbers", []int{3, 4}, math.MaxInt32 - 1, "table"},
		{"a count int32 slots would wrap on", []int{3, 4}, math.MaxInt32, "narrow"},
		{"a negative count", []int{3, 4}, -1, "narrow"},
		{"within uint64", []int{1000, 1000, 1000, 1000, 1000, 1000}, 1 << 20, "narrow"},
		{"past uint64", []int{1000, 1000, 1000, 1000, 1000, 1000, 1000}, 1 << 20, "wide"},
	} {
		x := NewTupleIndex(tc.sizes, nil, tc.feed)
		if got := regime(x); got != tc.want {
			t.Errorf("%s: sizes %v fed %d keys by %s, want %s", tc.name, tc.sizes, tc.feed, got, tc.want)
		}
		if tc.want == "table" {
			space := 1
			for _, s := range tc.sizes {
				space *= max(s, 1)
			}
			if len(x.table) != space {
				t.Errorf("%s: table of %d slots for a key space of %d", tc.name, len(x.table), space)
			}
		}
	}
}

// TestTupleIndexRegimesAgree feeds the same rows, across block edges, through
// the table and the narrow map, by row range and by code tuple: the same ids
// and the same tuples every way.
func TestTupleIndexRegimesAgree(t *testing.T) {
	const rows = 3*blockRows + 7
	sizes := []int{5, 1, 7}
	rng := rand.New(rand.NewSource(1))
	cols := make([][]uint32, len(sizes))
	for i, size := range sizes {
		cols[i] = make([]uint32, rows)
		for row := range cols[i] {
			cols[i][row] = uint32(rng.Intn(size))
		}
	}
	var want []int32
	var wantCodes []uint32
	for _, feed := range []int{rows, 1, math.MaxInt32} { // table, narrow, narrow
		byRows := NewTupleIndex(sizes, cols, feed)
		ids := make([]int32, rows)
		byRows.AddRows(0, rows, ids)
		byCodes := NewTupleIndex(sizes, nil, feed)
		codes := make([]uint32, len(sizes))
		for row := 0; row < rows; row++ {
			for i := range cols {
				codes[i] = cols[i][row]
			}
			if id := byCodes.AddCodes(codes); int32(id) != ids[row] {
				t.Fatalf("fed %d: row %d is tuple %d by code tuple, %d by row range", feed, row, id, ids[row])
			}
		}
		_, got := byRows.Codes()
		_, gotByCodes := byCodes.Codes()
		if want == nil {
			want, wantCodes = ids, got
		}
		if !slices.Equal(ids, want) || !slices.Equal(got, wantCodes) || !slices.Equal(gotByCodes, wantCodes) || byRows.Len() != byCodes.Len() {
			t.Fatalf("fed %d: ids or tuples differ from the table's", feed)
		}
	}
	if n := len(wantCodes) / len(sizes); n != 35 {
		t.Fatalf("%d distinct tuples, want all 35", n)
	}
}
