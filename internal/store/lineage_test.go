package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
)

// Appends must be invisible in the result: every snapshot of a lineage —
// columns, dictionaries, dataset and cube cells — equals the snapshot built
// from scratch over the same rows, however its columns were grown, whichever
// sibling was extended from the same base, and whatever the order.

var lineageHierarchies = []data.Hierarchy{
	{Name: "geo", Attrs: []string{"region", "district", "village"}},
	{Name: "time", Attrs: []string{"year", "month"}},
	{Name: "kind", Attrs: []string{"kind"}},
}

var lineageDims = []string{"region", "district", "village", "year", "month", "kind"}

// lineageModel is the expected state of a snapshot: its dictionaries, in the
// order values entered them, and its rows as strings.
type lineageModel struct {
	measures []string
	dicts    [][]string
	rows     []Row
}

func newLineageModel(measures []string) *lineageModel {
	return &lineageModel{measures: measures, dicts: make([][]string, len(lineageDims))}
}

func (m *lineageModel) clone() *lineageModel {
	c := &lineageModel{measures: m.measures, dicts: make([][]string, len(m.dicts)), rows: slices.Clone(m.rows)}
	for i, d := range m.dicts {
		c.dicts[i] = slices.Clone(d)
	}
	return c
}

// grow enters rows' values into the dictionaries, in row order.
func (m *lineageModel) grow(rows []Row) {
	for _, r := range rows {
		for i, v := range r.Dims {
			if !slices.Contains(m.dicts[i], v) {
				m.dicts[i] = append(m.dicts[i], v)
			}
		}
	}
}

// add appends rows, growing the dictionaries as an append does.
func (m *lineageModel) add(rows []Row) {
	m.grow(rows)
	m.rows = append(m.rows, rows...)
}

// keep drops the rows keep rejects; dictionaries stay, as retention leaves them.
func (m *lineageModel) keep(keep func(Row) bool) {
	m.rows = slices.DeleteFunc(slices.Clone(m.rows), func(r Row) bool { return !keep(r) })
}

// snapshot builds the model's snapshot from scratch, with its cube.
func (m *lineageModel) snapshot(t testing.TB) *Snapshot {
	t.Helper()
	dims := make([]data.DimColumn, len(lineageDims))
	for i, name := range lineageDims {
		codes := make([]uint32, len(m.rows))
		for ri, r := range m.rows {
			codes[ri] = uint32(slices.Index(m.dicts[i], r.Dims[i]))
		}
		dims[i] = data.DimColumn{Name: name, Dict: slices.Clone(m.dicts[i]), Codes: codes}
	}
	measures := make([]data.MeasureColumn, len(m.measures))
	for i, name := range m.measures {
		vals := make([]float64, len(m.rows))
		for ri, r := range m.rows {
			vals[ri] = r.Measures[i]
		}
		measures[i] = data.MeasureColumn{Name: name, Values: vals}
	}
	ds, err := data.FromColumns("lineage", dims, measures, lineageHierarchies)
	if err != nil {
		t.Fatal(err)
	}
	s := FromDataset(ds)
	if err := s.BuildCube(); err != nil {
		t.Fatal(err)
	}
	if s.Cube() == nil {
		t.Fatal("reference snapshot has no cube")
	}
	return s
}

// lineageRows draws n FD-respecting rows over villages [vlo, vhi), months
// [mlo, mhi) and kinds [0, kinds), with integer measures, so that cube cells
// merged across appends add exactly.
func lineageRows(rng *rand.Rand, n, vlo, vhi, mlo, mhi, kinds, measures int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		v, mo := vlo+rng.Intn(vhi-vlo), mlo+rng.Intn(mhi-mlo)
		r := Row{Dims: []string{
			fmt.Sprintf("r%d", v/20), fmt.Sprintf("r%d-d%d", v/20, v/5), fmt.Sprintf("r%d-d%d-v%d", v/20, v/5, v),
			fmt.Sprintf("%d", 2015+mo/12), fmt.Sprintf("%d-%02d", 2015+mo/12, mo%12+1), fmt.Sprintf("k%d", rng.Intn(kinds)),
		}}
		units := float64(rng.Intn(50))
		r.Measures = []float64{units, 3*units + float64(rng.Intn(7))}[:measures]
		rows[i] = r
	}
	return rows
}

// eagerCopy writes s and opens it again eagerly, cube section included.
func eagerCopy(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cube() == nil {
		t.Fatal("eager open lost the cube")
	}
	return out
}

// sameSnapshot fails unless got holds want's rows bit for bit: columns,
// dictionaries, the derived dataset and every cube cell table.
func sameSnapshot(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.NumRows() != want.NumRows() || len(got.Dims) != len(want.Dims) || len(got.Measures) != len(want.Measures) {
		t.Fatalf("%s: %d rows, %d dims, %d measures; want %d, %d, %d", label,
			got.NumRows(), len(got.Dims), len(got.Measures), want.NumRows(), len(want.Dims), len(want.Measures))
	}
	for i, c := range got.Dims {
		w := want.Dims[i]
		if c.Name != w.Name || !slices.Equal(c.Dict, w.Dict) || !slices.Equal(c.Codes, w.Codes) {
			t.Fatalf("%s: dimension %q differs (dictionary %d vs %d values)", label, w.Name, len(c.Dict), len(w.Dict))
		}
	}
	for i, m := range got.Measures {
		if m.Name != want.Measures[i].Name || !sameFloats(m.Values, want.Measures[i].Values) {
			t.Fatalf("%s: measure %q differs", label, want.Measures[i].Name)
		}
	}
	gds, err := got.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	wds, err := want.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, gds, wds)
	for _, name := range lineageDims {
		gd, gc := gds.DimCodes(name)
		wd, wc := wds.DimCodes(name)
		if !slices.Equal(gd, wd) || !slices.Equal(gc, wc) {
			t.Fatalf("%s: dataset dimension %q differs", label, name)
		}
	}
	if got.Cube() == nil {
		t.Fatalf("%s: no cube", label)
	}
	gt, wt := got.Cube().Tables(), want.Cube().Tables()
	if got.Cube().NumRows() != want.Cube().NumRows() || len(gt) != len(wt) {
		t.Fatalf("%s: cube of %d rows, %d levels; want %d, %d", label, got.Cube().NumRows(), len(gt), want.Cube().NumRows(), len(wt))
	}
	for li := range wt {
		g, w := gt[li], wt[li]
		same := slices.Equal(g.Keys, w.Keys) && sameFloats(g.Counts, w.Counts) && len(g.Sums) == len(w.Sums)
		for mi := 0; same && mi < len(w.Sums); mi++ {
			same = sameFloats(g.Sums[mi], w.Sums[mi]) && sameFloats(g.SumSqs[mi], w.SumSqs[mi])
		}
		if !same {
			t.Fatalf("%s: cube level %d differs (%d cells vs %d)", label, li, len(g.Keys), len(w.Keys))
		}
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func extendRows(t testing.TB, base *Snapshot, rows []Row) *Snapshot {
	t.Helper()
	batch, err := EncodeBatch(base, rows)
	if err != nil {
		t.Fatal(err)
	}
	next, err := batch.Extend(base)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestAppendLineageMatchesRebuild appends batch after batch onto a cubed
// snapshot opened eagerly: a batch of known values, one that grows only the
// geo hierarchy's dictionaries, an empty batch that grows the time
// hierarchy's, one growing both, one row, and a new kind. Every successor,
// and at the end every earlier version again, equals its from-scratch
// rebuild. A schema without measures runs the same lineage.
func TestAppendLineageMatchesRebuild(t *testing.T) {
	for _, measures := range [][]string{{"units", "cost"}, {}} {
		t.Run(fmt.Sprintf("measures=%d", len(measures)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3 + len(measures))))
			nm := len(measures)
			m := newLineageModel(measures)
			m.add(lineageRows(rng, 2000, 0, 40, 0, 12, 2, nm))
			cur := eagerCopy(t, m.snapshot(t))
			sameSnapshot(t, "base", cur, m.snapshot(t))
			lineage, models := []*Snapshot{cur}, []*lineageModel{m.clone()}
			step := func(label string, next *Snapshot) {
				t.Helper()
				if next.Version != cur.Version+1 {
					t.Fatalf("%s: version %d after %d", label, next.Version, cur.Version)
				}
				sameSnapshot(t, label, next, m.snapshot(t))
				cur = next
				lineage, models = append(lineage, next), append(models, m.clone())
			}

			rows := lineageRows(rng, 200, 0, 40, 0, 12, 2, nm)
			m.add(rows)
			step("known values", extendRows(t, cur, rows))

			rows = lineageRows(rng, 150, 40, 55, 0, 12, 2, nm)
			m.add(rows)
			step("geo grows", extendRows(t, cur, rows))

			// A shard that receives none of a batch's rows still takes its
			// grown dictionaries.
			rows = lineageRows(rng, 30, 0, 40, 12, 15, 2, nm)
			m.grow(rows)
			batch, err := EncodeBatch(cur, rows)
			if err != nil {
				t.Fatal(err)
			}
			next, err := batch.Pick(nil).Extend(cur)
			if err != nil {
				t.Fatal(err)
			}
			step("empty batch grows time", next)

			rows = lineageRows(rng, 300, 0, 70, 0, 24, 2, nm)
			m.add(rows)
			step("both grow", extendRows(t, cur, rows))

			rows = lineageRows(rng, 1, 0, 70, 0, 24, 2, nm)
			m.add(rows)
			step("one row", extendRows(t, cur, rows))

			b := NewBuilder(cur)
			for i := 0; i < 4; i++ {
				rows = lineageRows(rng, 100, 0, 70, 0, 24, 3, nm)
				m.add(rows)
				next, err := b.Append(rows)
				if err != nil {
					t.Fatal(err)
				}
				step(fmt.Sprintf("builder append %d", i), next)
			}

			for i, s := range lineage {
				sameSnapshot(t, fmt.Sprintf("version %d at the end", s.Version), s, models[i].snapshot(t))
			}
		})
	}
}

// TestAppendBranchesKeepTheirRows extends one base twice and each successor
// again, rejects a batch for an FD violation and extends the same base with a
// good one, and appends after retention: every snapshot keeps its own rows.
func TestAppendBranchesKeepTheirRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newLineageModel([]string{"units", "cost"})
	m.add(lineageRows(rng, 1500, 0, 40, 0, 24, 3, 2))
	base := NewBuilder(m.snapshot(t)).Snapshot()
	extend := func(label string, from *Snapshot, fm *lineageModel, rows []Row) (*Snapshot, *lineageModel) {
		t.Helper()
		next, nm := extendRows(t, from, rows), fm.clone()
		nm.add(rows)
		sameSnapshot(t, label, next, nm.snapshot(t))
		return next, nm
	}
	// Each branch extends twice: once onto the arrays its first append grew.
	a1, am1 := extend("a1", base, m, lineageRows(rng, 120, 0, 45, 0, 24, 3, 2))
	b1, bm1 := extend("b1", base, m, lineageRows(rng, 80, 0, 40, 0, 30, 3, 2))
	a2, am2 := extend("a2", a1, am1, lineageRows(rng, 60, 0, 50, 0, 24, 3, 2))
	b2, bm2 := extend("b2", b1, bm1, lineageRows(rng, 90, 0, 40, 0, 30, 3, 2))
	c1, cm1 := extend("c1", base, m, lineageRows(rng, 10, 0, 40, 0, 24, 3, 2))
	a1b, am1b := extend("a1b", a1, am1, lineageRows(rng, 70, 0, 40, 0, 24, 3, 2))

	// A batch whose last row re-parents village 3 fails after its good rows.
	bad := lineageRows(rng, 50, 0, 40, 0, 24, 3, 2)
	bad = append(bad, Row{Dims: []string{"r1", "r1-d4", "r0-d0-v3", "2015", "2015-01", "k0"}, Measures: []float64{1, 1}})
	batch, err := EncodeBatch(a2, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Extend(a2); err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("re-parenting batch: err = %v, want an FD violation", err)
	}
	a3, am3 := extend("a3 after a rejected batch", a2, am2, lineageRows(rng, 40, 0, 40, 0, 24, 3, 2))
	a4, am4 := extend("a4", a3, am3, lineageRows(rng, 40, 0, 40, 0, 24, 3, 2))

	// Retention keeps 2016 and later, then the survivors take an append.
	horizon := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	r, dropped, err := RetainAfter(b2, "year", horizon)
	if err != nil {
		t.Fatal(err)
	}
	rm := bm2.clone()
	rm.keep(func(row Row) bool { return row.Dims[3] >= "2016" })
	if dropped == 0 || r.NumRows() != len(rm.rows) {
		t.Fatalf("retention dropped %d rows, kept %d; want %d kept", dropped, r.NumRows(), len(rm.rows))
	}
	sameSnapshot(t, "retained", r, rm.snapshot(t))
	r1, rm1 := extend("r1 after retention", r, rm, lineageRows(rng, 50, 0, 60, 12, 30, 3, 2))
	_, _ = extend("r2", r1, rm1, lineageRows(rng, 50, 0, 60, 12, 30, 3, 2))

	for label, s := range map[string]struct {
		s *Snapshot
		m *lineageModel
	}{"base": {base, m}, "a1": {a1, am1}, "a2": {a2, am2}, "b1": {b1, bm1}, "b2": {b2, bm2}, "c1": {c1, cm1}, "a1b": {a1b, am1b}, "a3": {a3, am3}, "a4": {a4, am4}, "r1": {r1, rm1}} {
		sameSnapshot(t, label+" at the end", s.s, s.m.snapshot(t))
	}
}

// TestConcurrentExtendsOfOneBase: eight goroutines extend one base at once,
// then each extends its own successor; every result equals its rebuild. Run
// under -race it also shows no append writes what another reads.
func TestConcurrentExtendsOfOneBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newLineageModel([]string{"units", "cost"})
	m.add(lineageRows(rng, 1200, 0, 40, 0, 12, 2, 2))
	// The base is itself a successor, so the eight race for its spare capacity.
	grow := lineageRows(rng, 100, 0, 40, 0, 12, 2, 2)
	base := extendRows(t, m.snapshot(t), grow)
	m.add(grow)
	const n = 8
	batches := make([][2][]Row, n)
	models := make([][2]*lineageModel, n)
	for i := range batches {
		batches[i] = [2][]Row{lineageRows(rng, 40+10*i, 0, 40+i, 0, 12+i, 2+i%2, 2), lineageRows(rng, 30, 0, 45, 0, 14, 3, 2)}
		first := m.clone()
		first.add(batches[i][0])
		second := first.clone()
		second.add(batches[i][1])
		models[i] = [2]*lineageModel{first, second}
	}
	got := make([][2]*Snapshot, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j, rows := range batches[i] {
				from := base
				if j == 1 {
					from = got[i][0]
				}
				batch, err := EncodeBatch(from, rows)
				if err == nil {
					got[i][j], err = batch.Extend(from)
				}
				if err != nil {
					errs[i] = err
					return
				}
				if _, err := got[i][j].Dataset(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for j := range got[i] {
			sameSnapshot(t, fmt.Sprintf("goroutine %d append %d", i, j), got[i][j], models[i][j].snapshot(t))
		}
	}
	sameSnapshot(t, "base", base, m.snapshot(t))
}

// TestAppendRefusesFDViolationsOfTheBatch: a batch row that re-parents a
// value of the base's rows, and two batch rows that disagree on a new value's
// parent, are each refused naming the hierarchy, the child value and both
// parents; the builder keeps its snapshot.
func TestAppendRefusesFDViolationsOfTheBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newLineageModel([]string{"units", "cost"})
	m.add(lineageRows(rng, 500, 0, 40, 0, 12, 2, 2))
	b := NewBuilder(m.snapshot(t))
	first := lineageRows(rng, 50, 0, 40, 0, 12, 2, 2)
	if _, err := b.Append(first); err != nil {
		t.Fatal(err)
	}
	m.add(first)
	row := func(district, village, month string) Row {
		return Row{Dims: []string{"r0", district, village, month[:4], month, "k0"}, Measures: []float64{1, 2}}
	}
	for _, tc := range []struct {
		name string
		rows []Row
		want []string
	}{
		{"against the base", append(lineageRows(rng, 20, 0, 40, 0, 12, 2, 2), row("r0-d2", "r0-d0-v1", "2015-03")),
			[]string{`hierarchy "geo"`, `"r0-d0-v1"`, `"r0-d0"`, `"r0-d2"`}},
		{"against the base, time", []Row{row("r0-d0", "r0-d0-v1", "2015-03"), {Dims: []string{"r0", "r0-d0", "r0-d0-v1", "2019", "2015-03", "k0"}, Measures: []float64{1, 2}}},
			[]string{`hierarchy "time"`, `"2015-03"`, `"2015"`, `"2019"`}},
		{"inside the batch", []Row{row("r0-d1", "new-v", "2015-03"), row("r0-d0", "r0-d0-v2", "2015-04"), row("r0-d3", "new-v", "2015-03")},
			[]string{`hierarchy "geo"`, `"new-v"`, `"r0-d1"`, `"r0-d3"`}},
	} {
		before := b.Snapshot()
		_, err := b.Append(tc.rows)
		if err == nil {
			t.Fatalf("%s: violating batch accepted", tc.name)
		}
		for _, w := range append(tc.want, "FD violation") {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
		if b.Snapshot() != before {
			t.Errorf("%s: a refused batch advanced the builder", tc.name)
		}
	}
	// The lineage goes on, and equals its rebuild.
	rows := lineageRows(rng, 30, 0, 40, 0, 12, 2, 2)
	next, err := b.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	m.add(rows)
	sameSnapshot(t, "after the refusals", next, m.snapshot(t))
}
