package agg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
)

// referenceGroups is the obviously-right group-by every assembly path is
// checked against: materialized strings, one string-keyed map, row order,
// then a comparison sort of the string tuples.
func referenceGroups(d *data.Dataset, attrs []string, measure string) []agg.Group {
	cols := make([][]string, len(attrs))
	for i, a := range attrs {
		cols[i] = d.Dim(a)
	}
	index := make(map[string]int)
	var groups []agg.Group
	for row, v := range d.Measure(measure) {
		var vals []string
		for i := range attrs {
			vals = append(vals, cols[i][row])
		}
		key := data.EncodeKey(vals)
		gi, ok := index[key]
		if !ok {
			gi = len(groups)
			index[key] = gi
			groups = append(groups, agg.Group{Vals: vals})
		}
		groups[gi].Stats = groups[gi].Stats.Add(agg.Stats{Count: 1, Sum: v, SumSq: v * v})
	}
	sort.Slice(groups, func(a, b int) bool { return slices.Compare(groups[a].Vals, groups[b].Vals) < 0 })
	return groups
}

// checkCoded verifies a result against the reference groups: the same tuples
// and statistics in the same order, and a coded form — one code per group and
// attribute, indexing the result's own dictionaries — that decodes to them.
func checkCoded(t *testing.T, label string, got *agg.Result, attrs []string, measure string, want []agg.Group) {
	t.Helper()
	k := len(attrs)
	if !slices.Equal(got.Attrs, attrs) || got.Measure != measure {
		t.Fatalf("%s: result is over (%v, %q), want (%v, %q)", label, got.Attrs, got.Measure, attrs, measure)
	}
	if len(got.Groups) != len(want) || len(got.Codes) != len(want)*k || len(got.Dicts) != k {
		t.Fatalf("%s: %d groups, %d codes, %d dictionaries; want %d groups over %d attributes",
			label, len(got.Groups), len(got.Codes), len(got.Dicts), len(want), k)
	}
	for gi, g := range got.Groups {
		if !slices.Equal(g.Vals, want[gi].Vals) || (k == 0) != (g.Vals == nil) || g.Stats != want[gi].Stats {
			t.Fatalf("%s: group %d = %q %+v, want %q %+v", label, gi, g.Vals, g.Stats, want[gi].Vals, want[gi].Stats)
		}
		if g.Key() != data.EncodeKey(want[gi].Vals) {
			t.Fatalf("%s: group %d key %q", label, gi, g.Key())
		}
		for ai, v := range g.Vals {
			if dec := got.Dicts[ai][got.Codes[gi*k+ai]]; dec != v {
				t.Fatalf("%s: group %d attribute %d decodes to %q, value is %q", label, gi, ai, dec, v)
			}
		}
		if found, ok := got.Get(want[gi].Vals); !ok || !slices.Equal(found.Vals, g.Vals) || found.Stats != g.Stats {
			t.Fatalf("%s: Get(%q) = %+v, %v", label, want[gi].Vals, found, ok)
		}
	}
}

// TestGroupByCodedMatchesStringPath holds every way a Result is assembled —
// the row scan, the cube's prefix GroupBy, and the string constructor — to
// the string reference: same groups, same canonical order
// (lexicographic by value strings, not by dictionary code), same coded form.
func TestGroupByCodedMatchesStringPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(name string, d *data.Dataset, measure string, groupings ...[]string) {
		t.Helper()
		c, cubeErr := cube.Build(d)
		for _, attrs := range groupings {
			label := fmt.Sprintf("%s %v", name, attrs)
			want := referenceGroups(d, attrs, measure)
			scanned := agg.GroupBy(d, attrs, measure)
			checkCoded(t, label+" scan", scanned, attrs, measure, want)

			shuffled := slices.Clone(want)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			built := agg.NewResult(attrs, measure, shuffled)
			checkCoded(t, label+" NewResult", built, attrs, measure, want)
			if !built.Equal(scanned) || !scanned.Equal(built) {
				t.Fatalf("%s: scan and NewResult results are not Equal", label)
			}
			if cubeErr != nil {
				continue
			}
			if got, ok := c.GroupBy(attrs, measure); ok {
				checkCoded(t, label+" cube", got, attrs, measure, want)
			}
		}
	}

	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	demo := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	for _, r := range [][]string{
		{"Ofla", "Adishim", "1986"}, {"Ofla", "Adishim", "1986"}, {"Ofla", "Darube", "1986"},
		{"Ofla", "Zata", "1986"}, {"Ofla", "Adishim", "1987"}, {"Raya", "Kukufto", "1986"},
	} {
		demo.AppendRowVals(r, []float64{float64(len(r[1]))})
	}
	check("demo", demo, "severity",
		nil, // zero attributes: one group keyed by the empty tuple
		[]string{"district"},
		[]string{"village"},
		[]string{"district", "year"},
		[]string{"district", "village", "year"},
	)
	// No rows: empty dictionaries, no groups.
	check("empty", demo.Select(nil), "severity", nil, []string{"district"}, []string{"district", "village", "year"})
	check("never filled", data.New("e", []string{"a"}, []string{"m"}, nil), "m", nil, []string{"a"})
	// A row subset keeps its source's dictionaries, unused entries included.
	check("subset", demo.Where(data.Predicate{"district": "Raya"}), "severity",
		[]string{"district"}, []string{"village", "year"})

	// Dictionaries whose code order (first appearance) is not the sorted
	// order, holding prefix pairs, multi-byte values and the empty string;
	// measures are integers, so every sum is exact.
	values := []string{"b", "ab", "a", "é", "aé", "zz", "", "z", "日本", "日"}
	hs := []data.Hierarchy{{Name: "ab", Attrs: []string{"a", "b"}}, {Name: "c", Attrs: []string{"c"}}}
	mixed := data.New("mixed", []string{"a", "b", "c"}, []string{"m"}, hs)
	for i := 0; i < 600; i++ {
		mixed.AppendRowVals([]string{
			values[rng.Intn(len(values))], values[rng.Intn(7)], values[3+rng.Intn(5)],
		}, []float64{float64(rng.Intn(9))})
	}
	groupings := [][]string{
		{"a"}, {"b"}, {"c"}, {"a", "b"}, {"c", "a"}, {"a", "b", "c"}, {"c", "a", "b"}, {"b", "c"}, {"b", "a"},
	}
	check("mixed", mixed, "m", groupings...)
	check("mixed subset", mixed.Where(data.Predicate{"a": "ab"}), "m", groupings...)

	// Ten attributes of 256 values each: the dictionary-size product passes
	// 2^64 at the eighth, so 7 attributes bucket on the uint64 composite and
	// 8, 9 and 10 on the byte-string key.
	names := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"}
	wide := data.New("wide", names, []string{"m"}, nil)
	vals := make([]string, len(names))
	for i := 0; i < 1500; i++ {
		for j := range vals {
			v := 255 - i // the first 256 rows put every value into every dictionary, descending
			if i >= 256 {
				v = rng.Intn(3) * 85 // then few enough values that groups repeat
			}
			vals[j] = fmt.Sprintf("v%03d", v%256)
		}
		wide.AppendRowVals(vals, []float64{rng.NormFloat64()})
	}
	for _, n := range names {
		if dict, _ := wide.DimCodes(n); len(dict) != 256 {
			t.Fatalf("test premise: dictionary %s has %d values, want 256", n, len(dict))
		}
	}
	check("wide", wide, "m", names[:7], names[:8], names[:9], names, []string{"d9", "d0", "d5"})
}

// TestOrderKeepsTuplesSharingAKey: Order returns a permutation of every tuple
// even where two share a key — as distinct tuples do only under the path
// ranks of an inconsistent cube — and orders those stably, in input order.
func TestOrderKeepsTuplesSharingAKey(t *testing.T) {
	// Attribute 0 is unranked, as an ancestor before its descendant's path
	// rank; the keys are 2, 1, 0 and 1 in a space of 4, small enough to place.
	codes := []uint32{0, 2, 1, 0, 2, 1, 0, 0}
	if got, want := agg.Order(4, codes, [][]uint32{nil, {1, 0, 2, 3}}), []int32{2, 1, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("Order = %v, want %v", got, want)
	}
}

// paddedDataset builds rows over dictionaries of the given sizes, most of
// whose entries no row uses: a column draws from at most `used` codes spread
// over its dictionary, the last entry always among them (so the top of the key
// space is reached). Measures are non-integers, so a group's statistics depend
// on the order its rows are added in.
func paddedDataset(t testing.TB, rng *rand.Rand, rows, used int, sizes ...int) *data.Dataset {
	t.Helper()
	dims := make([]data.DimColumn, len(sizes))
	for ai, size := range sizes {
		dict := make([]string, size)
		for c := range dict {
			dict[c] = fmt.Sprintf("a%d_%d", ai, size-c) // code order is not the sorted order
		}
		pool := make([]uint32, min(used, size))
		for i := range pool {
			pool[i] = uint32(size - 1 - i*(size/len(pool)))
		}
		codes := make([]uint32, rows)
		for row := range codes {
			codes[row] = pool[rng.Intn(len(pool))]
		}
		dims[ai] = data.DimColumn{Name: fmt.Sprintf("a%d", ai), Dict: dict, Codes: codes}
	}
	m := make([]float64, rows)
	for row := range m {
		m[row] = rng.NormFloat64()
	}
	d, err := data.FromColumns("padded", dims, []data.MeasureColumn{{Name: "m", Values: m}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestScanKeyRegimes holds the row scan (agg.GroupBy without a cube) to the
// string reference over every shape of key space its bucketing can meet: no
// attributes, a one-entry dictionary, a dictionary product far below, exactly
// at and just past four times the row count, far past it but within uint64
// (six attributes of 1,000 entries), and past uint64 (seven) — each at row
// counts on both sides of a 1,024-row boundary, whole and as Where subsets,
// which keep the source's dictionaries over fewer rows.
func TestScanKeyRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, rows := range []int{1, 1023, 1024, 1025, 3*1024 + 7} {
		for _, sizes := range [][]int{
			{},
			{1},
			{1, 5},
			{3, 1, 4},
			{7, 6},
			{4 * rows},
			{4*rows + 1},
			{4, rows},
			{2, 2*rows + 1},
			{rows, 9},
			{1000, 1000, 1000, 1000, 1000, 1000},
			{1000, 1000, 1000, 1000, 1000, 1000, 1000},
		} {
			d := paddedDataset(t, rng, rows, 5, sizes...)
			attrs := d.DimNames()
			reversed := slices.Clone(attrs)
			slices.Reverse(reversed)
			for _, sub := range []*data.Dataset{d, subsetOfFirstValue(d)} {
				for _, as := range [][]string{attrs, reversed} {
					label := fmt.Sprintf("%d of %d rows, dictionaries %v, %v", sub.NumRows(), rows, sizes, as)
					checkCoded(t, label, agg.GroupBy(sub, as, "m"), as, "m", referenceGroups(sub, as, "m"))
				}
			}
		}
	}
}

// subsetOfFirstValue selects the rows sharing row 0's value of the first
// dimension (every row when there is none).
func subsetOfFirstValue(d *data.Dataset) *data.Dataset {
	names := d.DimNames()
	if len(names) == 0 {
		return d.Where(data.Predicate{})
	}
	return d.Where(data.Predicate{names[0]: d.Dim(names[0])[0]})
}
