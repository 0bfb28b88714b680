package shard

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/store"
)

// testDataset builds a small two-hierarchy dataset with integer measures
// (integer sums add exactly in float64, so cube-vs-scan comparisons below can
// demand bit equality).
func testDataset() *data.Dataset {
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"region", "city"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	ds := data.New("cities", []string{"region", "city", "year"}, []string{"pop", "one"}, h)
	cities := map[string][]string{
		"north": {"oslo", "bergen", "trondheim"},
		"south": {"rome", "naples"},
		"east":  {"kyiv", "lviv", "odesa"},
		"west":  {"porto"},
	}
	i := 0
	for _, region := range []string{"north", "south", "east", "west"} {
		for _, city := range cities[region] {
			for _, year := range []string{"2019", "2020", "2021"} {
				i++
				ds.AppendRowVals([]string{region, city, year}, []float64{float64(100 + i*7%43), 1})
			}
		}
	}
	return ds
}

func mustPartition(t *testing.T, ds *data.Dataset, n int, key string) *Set {
	t.Helper()
	set, err := Partition(store.FromDataset(ds), n, key)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestPartitionRouting(t *testing.T) {
	ds := testDataset()
	snap := store.FromDataset(ds)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			set, err := Partition(snap, n, "")
			if err != nil {
				t.Fatal(err)
			}
			if set.Key != "region" {
				t.Fatalf("default key = %q, want region", set.Key)
			}
			if set.N() != n || len(set.Rows()) != n {
				t.Fatalf("N() = %d, len(Rows()) = %d, want %d", set.N(), len(set.Rows()), n)
			}
			if set.TotalRows() != snap.NumRows() {
				t.Fatalf("TotalRows() = %d, want %d", set.TotalRows(), snap.NumRows())
			}
			// Every row must sit on the shard its key value hashes to, and
			// shards must preserve the original relative row order: routing
			// the source rows one by one reproduces each shard exactly.
			want := make([][]store.Row, n)
			for r := 0; r < snap.NumRows(); r++ {
				row := rowAt(snap, r)
				si := Owner(row.Dims[0], n)
				want[si] = append(want[si], row)
			}
			for si, sn := range set.Snaps {
				if sn.NumRows() != len(want[si]) {
					t.Fatalf("shard %d has %d rows, want %d", si, sn.NumRows(), len(want[si]))
				}
				for r := 0; r < sn.NumRows(); r++ {
					if got := rowAt(sn, r); !reflect.DeepEqual(got, want[si][r]) {
						t.Fatalf("shard %d row %d = %v, want %v", si, r, got, want[si][r])
					}
				}
				// Dictionaries are shared, not copied.
				for ci := range sn.Dims {
					if &sn.Dims[ci].Dict[0] != &snap.Dims[ci].Dict[0] {
						t.Fatalf("shard %d dim %q does not share the source dictionary", si, sn.Dims[ci].Name)
					}
				}
			}
		})
	}
}

// rowAt decodes one row of a snapshot back to strings and values.
func rowAt(sn *store.Snapshot, r int) store.Row {
	row := store.Row{Dims: make([]string, len(sn.Dims)), Measures: make([]float64, len(sn.Measures))}
	for ci, c := range sn.Dims {
		row.Dims[ci] = c.Dict[c.Codes[r]]
	}
	for mi, m := range sn.Measures {
		row.Measures[mi] = m.Values[r]
	}
	return row
}

func TestPartitionErrors(t *testing.T) {
	snap := store.FromDataset(testDataset())
	if _, err := Partition(snap, 0, ""); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Partition(snap, -3, ""); err == nil {
		t.Error("n=-3 accepted")
	}
	if _, err := Partition(snap, 2, "city"); err == nil {
		t.Error("non-root partition key accepted")
	}
	if _, err := Partition(snap, 2, "nosuch"); err == nil {
		t.Error("unknown partition key accepted")
	}
	flat := data.New("flat", []string{"a"}, []string{"m"}, nil)
	flat.AppendRowVals([]string{"x"}, []float64{1})
	if _, err := Partition(store.FromDataset(flat), 2, ""); err == nil {
		t.Error("hierarchy-less dataset accepted without explicit key")
	}
}

// ownerSplit returns two key values that hash to different shards at the
// given shard count, so tests can force cross-shard situations without
// hard-coding hash outputs.
func ownerSplit(t *testing.T, n int) (a, b string) {
	t.Helper()
	first := fmt.Sprintf("r%d", 0)
	for i := 1; i < 256; i++ {
		v := fmt.Sprintf("r%d", i)
		if Owner(v, n) != Owner(first, n) {
			return first, v
		}
	}
	t.Fatal("no owner split found")
	return "", ""
}

func TestAppendRoutingAndSharing(t *testing.T) {
	ds := testDataset()
	base := mustPartition(t, ds, 3, "")
	rows := []store.Row{
		{Dims: []string{"north", "oslo", "2022"}, Measures: []float64{120, 1}},   // existing values
		{Dims: []string{"north", "hamar", "2019"}, Measures: []float64{30, 1}},   // new city
		{Dims: []string{"centre", "prague", "2020"}, Measures: []float64{90, 1}}, // new region
	}
	next, err := base.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != base.Version()+1 {
		t.Fatalf("version = %d, want %d", next.Version(), base.Version()+1)
	}
	if next.TotalRows() != base.TotalRows()+len(rows) {
		t.Fatalf("total rows = %d, want %d", next.TotalRows(), base.TotalRows()+len(rows))
	}
	// The receiver is untouched.
	if base.TotalRows() != store.FromDataset(ds).NumRows() {
		t.Fatal("append mutated the base set")
	}
	// Each appended row landed on its owner, after all the base rows.
	touched := make(map[int]int)
	for _, r := range rows {
		si := Owner(r.Dims[0], 3)
		sn := next.Snaps[si]
		at := base.Snaps[si].NumRows() + touched[si]
		touched[si]++
		if got := rowAt(sn, at); !reflect.DeepEqual(got, r) {
			t.Fatalf("shard %d row %d = %v, want appended %v", si, at, got, r)
		}
	}
	for si, sn := range next.Snaps {
		if sn.NumRows() != base.Snaps[si].NumRows()+touched[si] {
			t.Fatalf("shard %d rows = %d, want %d", si, sn.NumRows(), base.Snaps[si].NumRows()+touched[si])
		}
		// Grown dictionaries are shared by every shard of the successor…
		for ci := range sn.Dims {
			if &sn.Dims[ci].Dict[0] != &next.Snaps[0].Dims[ci].Dict[0] {
				t.Fatalf("shard %d dim %q does not share the successor dictionary", si, sn.Dims[ci].Name)
			}
		}
		// …and untouched shards share their code columns with the base.
		if touched[si] == 0 && sn.NumRows() > 0 {
			if &sn.Dims[0].Codes[0] != &base.Snaps[si].Dims[0].Codes[0] {
				t.Fatalf("untouched shard %d copied its code column", si)
			}
		}
	}
	// New dictionary values were appended in batch row order.
	regionDict := next.Snaps[0].Dims[0].Dict
	if regionDict[len(regionDict)-1] != "centre" {
		t.Fatalf("region dict tail = %q, want centre", regionDict[len(regionDict)-1])
	}
	cityDict := next.Snaps[0].Dims[1].Dict
	if got := cityDict[len(cityDict)-2:]; got[0] != "hamar" || got[1] != "prague" {
		t.Fatalf("city dict tail = %v, want [hamar prague]", got)
	}
	// The base dictionaries did not grow.
	if len(store.FromDataset(ds).Dims[0].Dict) != len(base.Snaps[0].Dims[0].Dict) {
		t.Fatal("append grew the base dictionaries")
	}
}

func TestAppendRejectsBadRows(t *testing.T) {
	set := mustPartition(t, testDataset(), 2, "")
	if _, err := set.Append([]store.Row{{Dims: []string{"north", "oslo"}, Measures: []float64{1, 1}}}); err == nil {
		t.Error("short dim row accepted")
	}
	if _, err := set.Append([]store.Row{{Dims: []string{"north", "oslo", "2022"}, Measures: []float64{math.NaN(), 1}}}); err == nil {
		t.Error("NaN measure accepted")
	}
	if got, err := set.Append(nil); err != nil || got != set {
		t.Errorf("empty append = (%v, %v), want the receiver unchanged", got, err)
	}
}

func TestAppendRejectsCrossShardFDViolation(t *testing.T) {
	ra, rb := ownerSplit(t, 2)
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"region", "city"}}}
	ds := data.New("fd", []string{"region", "city"}, []string{"m"}, h)
	ds.AppendRowVals([]string{ra, "springfield"}, []float64{1})
	ds.AppendRowVals([]string{rb, "shelbyville"}, []float64{1})
	set := mustPartition(t, ds, 2, "")
	// springfield already belongs to ra on one shard; re-parenting it under
	// rb routes the witness to the *other* shard, where per-shard validation
	// cannot see the conflict.
	_, err := set.Append([]store.Row{{Dims: []string{rb, "springfield"}, Measures: []float64{1}}})
	if err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("cross-shard FD violation not rejected: %v", err)
	}
	// The same city under its original region is fine.
	if _, err := set.Append([]store.Row{{Dims: []string{ra, "springfield"}, Measures: []float64{2}}}); err != nil {
		t.Fatalf("valid append rejected: %v", err)
	}
}

// TestOpenRejectsCrossShardFDViolation: a partitioned file whose shards each
// satisfy every FD but disagree on one — shard 0 files month m1 under year
// y1, shard 1 under y2 — is refused at open, eager and mapped, naming the
// hierarchy, as the same rows in one file are.
func TestOpenRejectsCrossShardFDViolation(t *testing.T) {
	ra, rb := ownerSplit(t, 2)
	h := []data.Hierarchy{{Name: "geo", Attrs: []string{"region"}}, {Name: "time", Attrs: []string{"year", "month"}}}
	dicts := [][]string{{ra, rb}, {"y1", "y2"}, {"m1"}}
	shards := make([]*store.Snapshot, 2)
	for si := range shards {
		var dims []store.Column
		for ci, name := range []string{"region", "year", "month"} {
			code := uint32(si)
			if name == "month" {
				code = 0
			}
			dims = append(dims, store.Column{Name: name, Dict: dicts[ci], Codes: []uint32{code, code}})
		}
		var err error
		shards[si], err = store.NewSnapshot("split", 1, h, dims, []store.MeasureColumn{{Name: "m", Values: []float64{1, 2}}}, 2)
		if err != nil {
			t.Fatalf("shard %d on its own: %v", si, err)
		}
	}
	path := filepath.Join(t.TempDir(), "split.rst")
	if err := store.WriteFileAtomic(path, false, func(w io.Writer) error { return store.WriteSharded(w, "region", shards) }); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		set, err := Open(path, mapped)
		if err == nil {
			set.Close()
			t.Fatalf("mapped %v: a file whose shards disagree on month → year opened", mapped)
		}
		if msg := err.Error(); !strings.Contains(msg, `hierarchy "time"`) || !strings.Contains(msg, "FD violation") {
			t.Errorf("mapped %v: error %q does not name the hierarchy's FD violation", mapped, msg)
		}
	}
}

func TestAppendMaintainsCubes(t *testing.T) {
	set := mustPartition(t, testDataset(), 3, "")
	if err := set.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	next, err := set.Append([]store.Row{
		{Dims: []string{"north", "oslo", "2022"}, Measures: []float64{7, 1}},
		{Dims: []string{"centre", "prague", "2020"}, Measures: []float64{9, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for si, sn := range next.Snaps {
		merged := sn.Cube()
		if merged == nil {
			t.Fatalf("shard %d lost its cube across the append", si)
		}
		nds, err := sn.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cube.Build(nds)
		if err != nil {
			t.Fatal(err)
		}
		// The delta-merged cube must answer every lattice grouping exactly
		// like a from-scratch rebuild (integer measures make this bit-exact).
		for _, attrs := range [][]string{nil, {"region"}, {"year"}, {"region", "city"}, {"region", "city", "year"}} {
			for _, measure := range []string{"pop", "one"} {
				got, ok1 := merged.GroupBy(attrs, measure)
				want, ok2 := fresh.GroupBy(attrs, measure)
				if ok1 != ok2 {
					t.Fatalf("shard %d %v/%s: merged ok=%v, fresh ok=%v", si, attrs, measure, ok1, ok2)
				}
				if !ok1 {
					continue
				}
				if !got.Equal(want) {
					t.Fatalf("shard %d %v/%s: merged cube diverges from rebuild", si, attrs, measure)
				}
			}
		}
	}
}

// TestAppendRekeysPersistedCubes appends, to a cubed 2-shard set, a batch
// that grows a dictionary and lands on one shard only, writes the successor
// and reopens it eager and mapped: every shard's stored cube, the untouched
// one's included, answers every lattice GroupBy bit-identically to
// cube.Build over that shard's rows.
func TestAppendRekeysPersistedCubes(t *testing.T) {
	a, b := ownerSplit(t, 2)
	ds := data.New("cities", []string{"region", "city", "year"}, []string{"pop", "one"}, testDataset().Hierarchies)
	for i, city := range []string{"c1", "c2", "c3", "c4"} {
		region := []string{a, b}[i%2]
		for _, year := range []string{"2020", "2021"} {
			ds.AppendRowVals([]string{region, city, year}, []float64{float64(10*i + len(year)), 1})
		}
	}
	set := mustPartition(t, ds, 2, "")
	if err := set.BuildCubes(); err != nil {
		t.Fatal(err)
	}
	// A new city under region a: the city dictionary grows, and only a's
	// owner gets the row.
	next, err := set.Append([]store.Row{{Dims: []string{a, "c5", "2021"}, Measures: []float64{5, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	untouched := Owner(b, 2)
	if n := next.Snaps[untouched].NumRows(); n == 0 || n != set.Snaps[untouched].NumRows() {
		t.Fatalf("shard %d holds %d rows, want its predecessor's %d > 0", untouched, n, set.Snaps[untouched].NumRows())
	}
	path := filepath.Join(t.TempDir(), "appended.rst")
	if err := next.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		got, err := Open(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		for si, sn := range got.Snaps {
			c := sn.Cube()
			if c == nil {
				t.Fatalf("mapped=%v: shard %d reopened without its cube", mapped, si)
			}
			rows, err := data.FromColumns(sn.Name, sn.Dims, sn.Measures, append([]data.Hierarchy(nil), sn.Hierarchies...))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cube.Build(rows)
			if err != nil {
				t.Fatal(err)
			}
			for _, attrs := range latticeGroupings(sn.Hierarchies) {
				for _, m := range []string{"pop", "one"} {
					g, gok := c.GroupBy(attrs, m)
					w, wok := want.GroupBy(attrs, m)
					if gok != wok || (gok && (!g.Equal(w) || !slices.Equal(g.Codes, w.Codes))) {
						t.Errorf("mapped=%v shard %d: GroupBy(%v, %s) differs from cube.Build", mapped, si, attrs, m)
					}
				}
			}
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergedStatsMatchWholeCube is the satellite DeepEqual check: for every
// grouping in the rollup lattice, merging per-shard scan partials with
// Stats.Add must reproduce the whole-dataset cube's cells exactly. The
// absentee generator's "one" measure is integral, so equality is bit-exact
// even for groupings split across shards.
func TestMergedStatsMatchWholeCube(t *testing.T) {
	snap := store.FromDataset(datasets.GenerateAbsentee(7, 2000))
	coded, err := snap.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := cube.Build(coded)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Partition(snap, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	shardDS := make([]*data.Dataset, set.N())
	for i, sn := range set.Snaps {
		if shardDS[i], err = sn.Dataset(); err != nil {
			t.Fatal(err)
		}
	}
	for _, attrs := range latticeGroupings(coded.Hierarchies) {
		cells, ok := whole.GroupBy(attrs, "one")
		if !ok {
			// The cube does not materialize the empty grouping; a whole
			// scan is the same ground truth for it.
			cells = agg.GroupBy(coded, attrs, "one")
		}
		cells = cells.Decode()
		merged := make(map[string]agg.Stats)
		var order []string
		for _, sds := range shardDS {
			part := agg.GroupBy(sds, attrs, "one")
			for _, g := range part.Groups {
				if _, seen := merged[g.Key()]; !seen {
					order = append(order, g.Key())
				}
				merged[g.Key()] = merged[g.Key()].Add(g.Stats)
			}
		}
		if len(order) != len(cells.Groups) {
			t.Fatalf("%v: merged %d groups, cube has %d", attrs, len(order), len(cells.Groups))
		}
		for _, g := range cells.Groups {
			ms, ok := merged[g.Key()]
			if !ok {
				t.Fatalf("%v: cube group %q missing from merged partials", attrs, g.Key())
			}
			if !reflect.DeepEqual(ms, g.Stats) {
				t.Fatalf("%v group %q: merged stats %+v != cube cell %+v", attrs, g.Key(), ms, g.Stats)
			}
		}
	}
}

// latticeGroupings enumerates every hierarchy-prefix depth combination.
func latticeGroupings(hs []data.Hierarchy) [][]string {
	out := [][]string{nil}
	for _, h := range hs {
		var next [][]string
		for _, base := range out {
			for depth := 0; depth <= len(h.Attrs); depth++ {
				g := append(append([]string(nil), base...), h.Attrs[:depth]...)
				next = append(next, g)
			}
		}
		out = next
	}
	return out
}

func TestPartitionedFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cities.rst")
	set := mustPartition(t, testDataset(), 4, "")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != set.Key || got.N() != set.N() || got.Version() != set.Version() {
		t.Fatalf("reopened (%q, %d shards, v%d), want (%q, %d, v%d)",
			got.Key, got.N(), got.Version(), set.Key, set.N(), set.Version())
	}
	for si := range set.Snaps {
		a, b := set.Snaps[si], got.Snaps[si]
		if !reflect.DeepEqual(a.Dims, b.Dims) || !reflect.DeepEqual(a.Measures, b.Measures) ||
			!reflect.DeepEqual(a.Hierarchies, b.Hierarchies) || a.NumRows() != b.NumRows() {
			t.Fatalf("shard %d does not survive the round trip", si)
		}
	}
	// Reopened shards share one dictionary slice set, like freshly
	// partitioned ones.
	if got.N() > 1 && &got.Snaps[0].Dims[0].Dict[0] != &got.Snaps[1].Dims[0].Dict[0] {
		t.Fatal("reopened shards do not share dictionaries")
	}
	plain := filepath.Join(dir, "plain.rst")
	if err := store.FromDataset(testDataset()).WriteFile(plain); err != nil {
		t.Fatal(err)
	}
	// Open sniffs the layout: the plain file is the keyless one-shard Set.
	if one, err := Open(plain, false); err != nil || one.N() != 1 || one.Key != "" {
		t.Fatalf("Open(plain) = (%+v, %v), want a keyless one-shard set", one, err)
	}
	// The single-snapshot open refuses the partitioned file with a pointer at
	// the right entry point.
	if _, err := store.OpenFile(path); err == nil || !strings.Contains(err.Error(), "OpenShardsFile") {
		t.Fatalf("OpenFile on a partitioned snapshot: %v", err)
	}
}

func TestPartitionedFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cities.rst")
	set := mustPartition(t, testDataset(), 2, "")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "flip.rst"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "flip.rst"), false); err == nil {
		t.Error("byte flip not detected")
	}
	if err := os.WriteFile(filepath.Join(dir, "trunc.rst"), raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "trunc.rst"), false); err == nil {
		t.Error("truncation not detected")
	}
}
