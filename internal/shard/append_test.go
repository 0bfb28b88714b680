package shard

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/store"
)

// TestAppendRefusesFDViolationsAcrossShards: on a two-shard Set, a batch row
// that re-parents a value of its own shard's base rows, one that re-parents a
// value of the other shard's base rows, and two batch rows that disagree on a
// new value's parent are each refused naming the hierarchy, the child value
// and both parents. A good batch appends after each refusal.
func TestAppendRefusesFDViolationsAcrossShards(t *testing.T) {
	ra, rb := ownerSplit(t, 2)
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"region", "county", "city"}}, {Name: "time", Attrs: []string{"year"}}}
	ds := data.New("fd", []string{"region", "county", "city", "year"}, []string{"m"}, h)
	for i, r := range [][]string{{ra, "a1", "springfield"}, {ra, "a2", "ogdenville"}, {rb, "b1", "shelbyville"}, {rb, "b2", "capital"}} {
		ds.AppendRowVals([]string{r[0], r[1], r[2], "2020"}, []float64{float64(i)})
	}
	set := mustPartition(t, ds, 2, "")
	if err := set.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	if Owner(ra, 2) == Owner(rb, 2) {
		t.Fatal("test premise: the two regions share a shard")
	}
	row := func(region, county, city string) store.Row {
		return store.Row{Dims: []string{region, county, city, "2021"}, Measures: []float64{1}}
	}
	total := set.TotalRows()
	for _, tc := range []struct {
		name string
		rows []store.Row
		want []string
	}{
		// Rows route by region, so a row re-parenting springfield (a1, on
		// ra's shard) under county a2 lands beside it, under b1 on the other.
		{"against its own shard", []store.Row{row(rb, "b2", "capital"), row(ra, "a2", "springfield")},
			[]string{`city="springfield"`, `"a1"`, `"a2"`}},
		{"against another shard", []store.Row{row(ra, "a2", "ogdenville"), row(rb, "b1", "springfield")},
			[]string{`city="springfield"`, `"a1"`, `"b1"`}},
		{"inside the batch, one shard", []store.Row{row(ra, "a1", "brockway"), row(rb, "b1", "shelbyville"), row(ra, "a2", "brockway")},
			[]string{`city="brockway"`, `"a1"`, `"a2"`}},
		{"inside the batch, two shards", []store.Row{row(ra, "a1", "brockway"), row(rb, "b1", "brockway")},
			[]string{`city="brockway"`, `"a1"`, `"b1"`}},
	} {
		_, err := set.Append(tc.rows)
		if err == nil {
			t.Fatalf("%s: violating batch accepted", tc.name)
		}
		for _, w := range append(tc.want, `hierarchy "geo"`, "FD violation") {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
		next, err := set.Append([]store.Row{row(ra, "a1", "springfield"), row(rb, "b2", "north haverbrook")})
		if err != nil {
			t.Fatalf("%s: good batch after the refusal: %v", tc.name, err)
		}
		total += 2
		if next.TotalRows() != total || next.Version() != set.Version()+1 {
			t.Fatalf("%s: good batch gave %d rows at version %d", tc.name, next.TotalRows(), next.Version())
		}
		set = next
	}
}
