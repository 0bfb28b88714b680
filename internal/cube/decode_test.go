package cube

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
)

// divide is the reference decode of a level's key: per-attribute codes by
// division, the last attribute the least significant digit.
func divide(c *Cube, lv *level, k uint64) []uint64 {
	out := make([]uint64, len(lv.attrs))
	for i := len(lv.attrs) - 1; i >= 0; i-- {
		r := c.attrs[lv.attrs[i]].radix
		out[i], k = k%r, k/r
	}
	return out
}

// decodeRows draws rows over one to three hierarchies of depth one to three.
// A node has one to five children, and a third of the levels have a single
// value, so radix-1 attributes (one-value dictionaries) are common.
func decodeRows(rng *rand.Rand) ([]data.Hierarchy, []string, [][][]string) {
	var hiers []data.Hierarchy
	var dims []string
	var trees [][][]string
	for h, nh := 0, 1+rng.Intn(3); h < nh; h++ {
		hier := data.Hierarchy{Name: fmt.Sprintf("h%d", h)}
		paths := [][]string{nil}
		for l, depth := 0, 1+rng.Intn(3); l < depth; l++ {
			hier.Attrs = append(hier.Attrs, fmt.Sprintf("h%d_%d", h, l))
			fan := 1 + rng.Intn(5)
			if rng.Intn(3) == 0 {
				fan = 1
			}
			var next [][]string
			for _, p := range paths {
				for k := 0; k < fan; k++ {
					next = append(next, append(slices.Clip(p), fmt.Sprintf("%s.%d", p, k)))
				}
			}
			paths = next
		}
		hiers, dims, trees = append(hiers, hier), append(dims, hier.Attrs...), append(trees, paths)
	}
	return hiers, dims, trees
}

// decodeDataset appends n rows, each one path per hierarchy, to a fresh
// dataset, or extends ds when it is not nil.
func decodeDataset(rng *rand.Rand, ds *data.Dataset, hiers []data.Hierarchy, dims []string, trees [][][]string, n int) *data.Dataset {
	if ds == nil {
		ds = data.New("decode", dims, []string{"m"}, hiers)
	}
	for i := 0; i < n; i++ {
		var row []string
		for _, paths := range trees {
			row = append(row, paths[rng.Intn(len(paths))]...)
		}
		ds.AppendRowVals(row, []float64{float64(i % 5)})
	}
	return ds
}

// randomKeys replaces every level's cells by a random strictly ascending key
// set within the level's key space: none, a single cell (the largest key half
// the time, so one key carries through every digit), a dense run from a random
// offset, or sparse draws that jump several digits at once. Cell ci gets
// count ci + 1, which names it in any reader's output.
func randomKeys(rng *rand.Rand, c *Cube) {
	for _, lv := range c.levels {
		space := uint64(1)
		for h, d := range lv.depths {
			space *= c.prefixRadix[h][d]
		}
		var keys []uint64
		switch rng.Intn(4) {
		case 0:
			if rng.Intn(4) > 0 {
				k := space - 1
				if rng.Intn(2) == 0 {
					k = rng.Uint64() % space
				}
				keys = []uint64{k}
			}
		case 1:
			start := rng.Uint64() % space
			for k := start; k < space && len(keys) < 150; k++ {
				keys = append(keys, k)
			}
		default:
			for i := rng.Intn(150); i >= 0; i-- {
				keys = append(keys, rng.Uint64()%space)
			}
			slices.Sort(keys)
			keys = slices.Compact(keys)
		}
		lv.keys, lv.counts = keys, make([]float64, len(keys))
		lv.sums, lv.sumsqs = [][]float64{make([]float64, len(keys))}, [][]float64{make([]float64, len(keys))}
		for ci := range keys {
			lv.counts[ci] = float64(ci + 1)
			lv.sums[0][ci], lv.sumsqs[0][ci] = float64(ci)/2, float64(ci)/4
		}
	}
}

// checkReaders holds every reader of c's levels to per-key division: GroupBy
// over each level's attributes (its codes, cell by cell, matched through the
// count) and HierarchyPaths (its paths in key order).
func checkReaders(t *testing.T, label string, c *Cube) {
	t.Helper()
	for li, lv := range c.levels {
		if len(lv.attrs) == 0 {
			continue
		}
		names := make([]string, len(lv.attrs))
		for i, ai := range lv.attrs {
			names[i] = c.attrs[ai].name
		}
		res, ok := c.GroupBy(names, "m")
		if !ok || len(res.Groups) != len(lv.keys) {
			t.Fatalf("%s level %d: GroupBy ok=%v, want %d groups", label, li, ok, len(lv.keys))
		}
		k := len(names)
		for gi, g := range res.Groups {
			ci := int(g.Stats.Count) - 1
			want := divide(c, lv, lv.keys[ci])
			for i, code := range res.Codes[gi*k : (gi+1)*k] {
				if uint64(code) != want[i] {
					t.Fatalf("%s level %d: key %d decodes to %v, GroupBy gives %v", label, li, lv.keys[ci], want, res.Codes[gi*k:(gi+1)*k])
				}
			}
		}
	}
	for hi, h := range c.hiers {
		depths := make([]int, len(c.hiers))
		depths[hi] = len(h.Attrs)
		lv := c.levels[c.latticeIndex(depths)]
		paths, ok := c.HierarchyPaths(h)
		if !ok || len(paths) != len(lv.keys) {
			t.Fatalf("%s %s: HierarchyPaths ok=%v, %d paths for %d cells", label, h.Name, ok, len(paths), len(lv.keys))
		}
		for pi, p := range paths {
			for i, code := range divide(c, lv, lv.keys[pi]) {
				if p[i] != c.attrs[lv.attrs[i]].dict[code] {
					t.Fatalf("%s %s: path %d is %q, key %d decodes to codes %v", label, h.Name, pi, p, lv.keys[pi], divide(c, lv, lv.keys[pi]))
				}
			}
		}
	}
}

// TestDecodeMatchesDivision holds every reader of a level — GroupBy, the
// ranks GroupBy orders by, HierarchyPaths and Merge's re-encode — to per-key
// division, on cubes whose levels are replaced by random ascending keys (dense
// runs, sparse multi-digit jumps, single cells, empty levels) over one-value
// and larger dictionaries, on an empty cube, and on merges whose delta grows
// every dictionary (a one-value one included).
func TestDecodeMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var radix1, carries int
	for trial := 0; trial < 150; trial++ {
		hiers, dims, trees := decodeRows(rng)
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 0 // empty dictionaries: radix 1 and no cells
		}
		seed := rng.Int63()
		ds := decodeDataset(rand.New(rand.NewSource(seed)), nil, hiers, dims, trees, n)
		base, err := Build(ds)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d", trial)
		if n > 0 {
			randomKeys(rng, base)
		}
		checkReaders(t, label+" base", base)
		for _, a := range base.attrs {
			if a.radix == 1 {
				radix1++
			}
		}
		for _, lv := range base.levels {
			for ci := 1; ci < len(lv.keys); ci++ {
				prev, cur := divide(base, lv, lv.keys[ci-1]), divide(base, lv, lv.keys[ci])
				if len(cur) > 1 && !slices.Equal(prev[:len(cur)-2], cur[:len(cur)-2]) {
					carries++ // the step moved a digit two or more places up
				}
			}
		}

		// Merge re-keys base over the dictionaries of a delta that adds a
		// value at every level of every hierarchy.
		grownTrees := make([][][]string, len(trees))
		for h, paths := range trees {
			grownTrees[h] = slices.Clone(paths)
			for _, p := range paths {
				q := make([]string, len(p))
				for l, v := range p {
					q[l] = v + "+"
				}
				grownTrees[h] = append(grownTrees[h], q)
			}
		}
		grown := decodeDataset(rand.New(rand.NewSource(seed)), nil, hiers, dims, trees, n)
		m := 1 + rng.Intn(30)
		decodeDataset(rng, grown, hiers, dims, grownTrees, m)
		delta, err := BuildRows(grown, n, n+m)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := base.Merge(delta)
		if err != nil {
			t.Fatal(err)
		}
		for li, mlv := range merged.levels {
			want := map[string]float64{}
			for _, src := range []struct {
				c  *Cube
				lv *level
			}{{base, base.levels[li]}, {delta, delta.levels[li]}} {
				for ci, k := range src.lv.keys {
					want[fmt.Sprint(divide(src.c, src.lv, k))] += src.lv.counts[ci]
				}
			}
			if len(mlv.keys) != len(want) {
				t.Fatalf("%s level %d: merged %d cells, want %d", label, li, len(mlv.keys), len(want))
			}
			for ci, k := range mlv.keys {
				key := fmt.Sprint(divide(merged, mlv, k))
				if ci > 0 && k <= mlv.keys[ci-1] {
					t.Fatalf("%s level %d: merged keys not ascending at %d", label, li, ci)
				}
				if w, ok := want[key]; !ok || w != mlv.counts[ci] {
					t.Fatalf("%s level %d: merged cell %s count %v, want %v (present %v)", label, li, key, mlv.counts[ci], w, ok)
				}
			}
		}
		randomKeys(rng, merged)
		checkReaders(t, label+" merged", merged)
	}
	t.Logf("%d radix-1 attributes, %d steps carrying two or more digits", radix1, carries)
	if radix1 == 0 || carries == 0 {
		t.Fatalf("test premise: %d radix-1 attributes, %d multi-digit carries", radix1, carries)
	}
}
