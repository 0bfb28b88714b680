package factor

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/data"
)

// referencePaths is the obviously-right path extraction DistinctPaths is
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

// sortedPaths orders a path set so two extractions compare with DeepEqual.
func sortedPaths(paths [][]string) [][]string {
	out := append([][]string{}, paths...)
	sort.Slice(out, func(a, b int) bool { return data.EncodeKey(out[a]) < data.EncodeKey(out[b]) })
	return out
}

// TestSourceFromDatasetCodedMatchesStringPath verifies the code-tuple scan
// behind DistinctPaths/SourceFromDataset against the string reference.
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
		{"never filled", data.New("e", h.Attrs, nil, nil), h},
		// A row subset keeps its source's dictionaries, unused entries included.
		{"subset", ds.Where(data.Predicate{"region": "r2"}), h},
		{"wide 7", wide, data.Hierarchy{Name: "w", Attrs: names[:7]}},
		{"wide 8", wide, data.Hierarchy{Name: "w", Attrs: names[:8]}},
		{"wide 10", wide, data.Hierarchy{Name: "w", Attrs: names}},
	} {
		got, want := sortedPaths(DistinctPaths(tc.d, tc.h)), sortedPaths(referencePaths(tc.d, tc.h))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DistinctPaths != string reference:\n got %v\nwant %v", tc.name, got, want)
		}
	}

	got, err := SourceFromDataset(ds, h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSource(h.Name, h.Attrs, referencePaths(ds, h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("source != string-reference source:\n got %+v\nwant %+v", got, want)
	}
}

// TestDistinctPathsKeyRegimes holds DistinctPaths' scan to the string
// reference over every shape of key space its deduplication can meet —
// dictionaries mostly unused, their product far below, exactly at and just
// past four times the row count, far past it within uint64 (six attributes of
// 1,000 entries) and past uint64 (seven) — at row counts on both sides of a
// 1,024-row boundary, whole and as a Where subset keeping the dictionaries.
func TestDistinctPathsKeyRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
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
				// At most five codes in use, the dictionary's last among them.
				used := min(5, size)
				codes := make([]uint32, rows)
				for row := range codes {
					codes[row] = uint32(size - 1 - rng.Intn(used)*(size/used))
				}
				dims[ai] = data.DimColumn{Name: fmt.Sprintf("a%d", ai), Dict: dict, Codes: codes}
				h.Attrs = append(h.Attrs, dims[ai].Name)
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
				got, want := sortedPaths(DistinctPaths(sub, h)), sortedPaths(referencePaths(sub, h))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d of %d rows, dictionaries %v: DistinctPaths != string reference:\n got %v\nwant %v",
						sub.NumRows(), rows, sizes, got, want)
				}
			}
		}
	}
}
