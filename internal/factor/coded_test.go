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
