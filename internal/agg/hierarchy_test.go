package agg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/cube"
	"repro/internal/data"
)

// hierarchyTree draws the full-depth paths of one hierarchy: one to five
// roots, then one to five children per node, a third of the nodes with
// exactly one (single-child chains), so fan-out is ragged. Values are
// distinct within a level; rows intern them in random order.
func hierarchyTree(rng *rand.Rand, name string, depth int) [][]string {
	paths := [][]string{nil}
	for l := 0; l < depth; l++ {
		var next [][]string
		for _, p := range paths {
			n := 1 + rng.Intn(5)
			if l > 0 && rng.Intn(3) == 0 {
				n = 1
			}
			for range n {
				next = append(next, append(slices.Clip(p), fmt.Sprintf("%s.%d.%d", name, l, len(next))))
			}
		}
		paths = next
	}
	return paths
}

// hierarchyRows draws rows over one or two random hierarchies of depth one to
// three plus one attribute outside any hierarchy: each row picks a path per
// hierarchy, and its measure is not an integer, so a group's statistics depend
// on the order its rows are added in.
func hierarchyRows(rng *rand.Rand, rows int) ([]data.Hierarchy, *data.Dataset) {
	var hiers []data.Hierarchy
	var trees [][][]string
	var dims []string
	for h, nh := 0, 1+rng.Intn(2); h < nh; h++ {
		hier := data.Hierarchy{Name: fmt.Sprintf("h%d", h)}
		for l := range 1 + rng.Intn(3) {
			hier.Attrs = append(hier.Attrs, fmt.Sprintf("h%d_%d", h, l))
		}
		hiers, dims = append(hiers, hier), append(dims, hier.Attrs...)
		trees = append(trees, hierarchyTree(rng, hier.Name, len(hier.Attrs)))
	}
	ds := data.New("hier", append(dims, "flat"), []string{"m"}, hiers)
	for range rows {
		var r []string
		for _, paths := range trees {
			r = append(r, paths[rng.Intn(len(paths))]...)
		}
		ds.AppendRowVals(append(r, fmt.Sprint(rng.Intn(3))), []float64{rng.NormFloat64()})
	}
	return hiers, ds
}

// reparent returns the deepest attribute of a hierarchy of depth two or more
// and a row pair whose values of its parent differ: row 0 and the last such
// row, in another 1,024-row block when the rows span several. ok is false when
// the rows hold no such pair.
func reparent(hiers []data.Hierarchy, ds *data.Dataset) (attr string, lo, hi int, ok bool) {
	for _, h := range hiers {
		d := len(h.Attrs)
		if d < 2 {
			continue
		}
		_, pc := ds.DimCodes(h.Attrs[d-2])
		for hi = ds.NumRows() - 1; hi > 0; hi-- {
			if pc[hi] != pc[0] {
				return h.Attrs[d-1], 0, hi, true
			}
		}
	}
	return "", 0, 0, false
}

// TestScanHierarchyGroupings holds the row scan — and the cube, where it
// answers — to the string reference over random validated hierarchies of
// depth one to three, ragged ones included: every subset of the dimensions,
// prefixes of a hierarchy and non-prefix subsets such as [root leaf] alike,
// in both orders, at row counts on both sides of the 1,024-row block edge.
// Beside each validated dataset it checks a copy whose rows break an FD and
// was never validated, the validated dataset after SetDimValue breaks an FD,
// and a Where subset — none of which may merge what their rows split.
func TestScanHierarchyGroupings(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var broken int
	for trial := 0; trial < 24; trial++ {
		rows := []int{7, 1023, 1025, 3*1024 + 7}[trial%4]
		hiers, ds := hierarchyRows(rng, rows)
		if err := ds.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		type dataCase struct {
			name string
			ds   *data.Dataset
		}
		cases := []dataCase{
			{"validated", ds},
			{"where", ds.Where(data.Predicate{hiers[0].Attrs[0]: ds.Dim(hiers[0].Attrs[0])[rows-1]})},
		}
		if attr, lo, hi, ok := reparent(hiers, ds); ok {
			// Never validated: a copy whose row hi takes row lo's leaf, which
			// then sits under two parents.
			unchecked := ds.Clone()
			unchecked.SetDimValue(attr, hi, ds.Dim(attr)[lo])
			if unchecked.Clone().Validate() == nil {
				t.Fatalf("trial %d: test premise: moving %s of row %d to row %d's value breaks no FD", trial, attr, hi, lo)
			}
			broken++
			// Validated, then broken in place by the same row write.
			written := ds.Clone()
			if err := written.Validate(); err != nil {
				t.Fatal(err)
			}
			written.SetDimValue(attr, hi, ds.Dim(attr)[lo])
			cases = append(cases, dataCase{"unchecked", unchecked}, dataCase{"written", written})
		}
		dims := ds.DimNames()
		for _, c := range cases {
			built, cubeErr := cube.Build(c.ds)
			for mask := 1; mask < 1<<len(dims); mask++ {
				var attrs []string
				for i, a := range dims {
					if mask&(1<<i) != 0 {
						attrs = append(attrs, a)
					}
				}
				reversed := slices.Clone(attrs)
				slices.Reverse(reversed)
				for _, as := range [][]string{attrs, reversed} {
					label := fmt.Sprintf("trial %d (%d rows) %s %v", trial, rows, c.name, as)
					want := referenceGroups(c.ds, as, "m")
					checkCoded(t, label+" scan", agg.GroupBy(c.ds, as, "m"), as, "m", want)
					if cubeErr != nil {
						continue
					}
					if got, ok := built.GroupBy(as, "m"); ok {
						checkCoded(t, label+" cube", got, as, "m", want)
					}
				}
			}
		}
	}
	if broken == 0 {
		t.Fatal("test premise: no trial broke an FD")
	}
}
