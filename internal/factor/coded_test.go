package factor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
)

// referencePaths is the obviously-right path extraction SourceFromDataset is
// checked against: materialized strings deduplicated through one
// string-keyed map.
func referencePaths(d *data.Dataset, h data.Hierarchy) [][]string {
	cols := make([][]string, len(h.Attrs))
	for i, a := range h.Attrs {
		cols[i] = d.Dim(a)
	}
	seen := make(map[string][]string)
	for row := 0; row < d.NumRows(); row++ {
		var vals []string
		for i := range h.Attrs {
			vals = append(vals, cols[i][row])
		}
		seen[data.EncodeKey(vals)] = vals
	}
	paths := make([][]string, 0, len(seen))
	for _, p := range seen {
		paths = append(paths, p)
	}
	return paths
}

// TestSourceFromDatasetCodedMatchesStringPath holds SourceFromDataset's
// chains to the string reference (checkChainsMatchReference), and its errors
// to NewSource's over the reference paths, over prefixes, subsets, empty
// datasets and key spaces past uint64; a dataset of no measures has nothing
// to group by and is refused.
func TestSourceFromDatasetCodedMatchesStringPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := data.Hierarchy{Name: "geo", Attrs: []string{"region", "district", "village"}}
	ds := data.New("t", h.Attrs, []string{"m"}, []data.Hierarchy{h})
	// Build FD-respecting paths: village determines district determines region.
	for i := 0; i < 800; i++ {
		r := rng.Intn(4)
		d := r*3 + rng.Intn(3)
		v := d*5 + rng.Intn(5)
		ds.AppendRowVals([]string{
			fmt.Sprintf("r%d", r), fmt.Sprintf("d%02d", d), fmt.Sprintf("v%03d", v),
		}, []float64{1})
	}

	// Ten attributes of 256 values each: the dictionary-size product passes
	// 2^64 at the eighth, so the wider hierarchies dedupe on the byte-string
	// key instead of the uint64 composite.
	names := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"}
	wide := data.New("wide", names, []string{"m"}, nil)
	vals := make([]string, len(names))
	for i := 0; i < 1500; i++ {
		for j := range vals {
			v := i // the first 256 rows put every value into every dictionary
			if i >= 256 {
				v = rng.Intn(3) * 85 // then few enough values that paths repeat
			}
			vals[j] = fmt.Sprintf("v%03d", v%256)
		}
		wide.AppendRowVals(vals, []float64{1})
	}

	for _, tc := range []struct {
		name string
		d    *data.Dataset
		h    data.Hierarchy
	}{
		{"geo", ds, h},
		{"geo prefix", ds, data.Hierarchy{Name: "geo", Attrs: h.Attrs[:2]}},
		{"zero attributes", ds, data.Hierarchy{Name: "none"}},
		{"empty dataset", ds.Select(nil), h},
		{"never filled", data.New("e", h.Attrs, []string{"m"}, nil), h},
		// A row subset keeps its source's dictionaries, unused entries included.
		{"subset", ds.Where(data.Predicate{"region": "r2"}), h},
		{"wide 7", wide, data.Hierarchy{Name: "w", Attrs: names[:7]}},
		{"wide 8", wide, data.Hierarchy{Name: "w", Attrs: names[:8]}},
		{"wide 10", wide, data.Hierarchy{Name: "w", Attrs: names}},
	} {
		_, err := SourceFromDataset(tc.d, tc.h)
		_, wantErr := NewSource(tc.h.Name, tc.h.Attrs, referencePaths(tc.d, tc.h))
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: error %v, string reference's %v", tc.name, err, wantErr)
			continue
		}
		if err == nil {
			checkChainsMatchReference(t, tc.name, tc.d, tc.h)
		}
	}
	if _, err := SourceFromDataset(data.New("e", h.Attrs, nil, nil), h); err == nil {
		t.Error("a dataset of no measures built a source")
	}
}

// TestSourceFromDatasetKeyRegimes holds a source's chains to the string
// reference (checkChainsMatchReference) over every shape of key space a
// scan's bucketing can meet — dictionaries mostly unused, their product far below, exactly at and just
// past four times the row count, far past it within uint64 (six attributes of
// 1,000 entries) and past uint64 (seven) — at row counts on both sides of a
// 1,024-row boundary, whole and as a Where subset keeping the dictionaries.
// Each row takes one of at most five paths, named by its last attribute's
// value, so the hierarchy's dependencies hold and the source must build; a
// hierarchy of no attributes must be refused.
func TestSourceFromDatasetKeyRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, rows := range []int{1, 1023, 1024, 1025, 3*1024 + 7} {
		for _, sizes := range [][]int{
			{},
			{1},
			{1, 5},
			{7, 6},
			{4 * rows},
			{4*rows + 1},
			{4, rows},
			{2, 2*rows + 1},
			{1000, 1000, 1000, 1000, 1000, 1000},
			{1000, 1000, 1000, 1000, 1000, 1000, 1000},
		} {
			dims := make([]data.DimColumn, len(sizes))
			h := data.Hierarchy{Name: "h"}
			for ai, size := range sizes {
				dict := make([]string, size)
				for c := range dict {
					dict[c] = fmt.Sprintf("a%d_%d", ai, size-c)
				}
				dims[ai] = data.DimColumn{Name: fmt.Sprintf("a%d", ai), Dict: dict, Codes: make([]uint32, rows)}
				h.Attrs = append(h.Attrs, dims[ai].Name)
			}
			for row := 0; row < rows; row++ {
				// The i'th of an attribute's at most five codes in use (its
				// dictionary's last among them) determines its parent's.
				i := rng.Intn(5)
				for ai := len(sizes) - 1; ai >= 0; ai-- {
					used := min(5, sizes[ai])
					i %= used
					dims[ai].Codes[row] = uint32(sizes[ai] - 1 - i*(sizes[ai]/used))
				}
			}
			d, err := data.FromColumns("padded", dims, []data.MeasureColumn{{Name: "m", Values: make([]float64, rows)}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			subset := d.Where(data.Predicate{})
			if len(sizes) > 0 {
				subset = d.Where(data.Predicate{h.Attrs[0]: d.Dim(h.Attrs[0])[0]})
			}
			for _, sub := range []*data.Dataset{d, subset} {
				_, err := SourceFromDataset(sub, h)
				if len(sizes) == 0 {
					if err == nil {
						t.Errorf("%d rows: a hierarchy of no attributes built a source", sub.NumRows())
					}
					continue
				}
				if err != nil {
					t.Fatalf("%d of %d rows, dictionaries %v: %v", sub.NumRows(), rows, sizes, err)
				}
				checkChainsMatchReference(t, fmt.Sprintf("%d of %d rows, dictionaries %v", sub.NumRows(), rows, sizes), sub, h)
			}
		}
	}
}
