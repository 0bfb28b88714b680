package factor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/data"
)

// checkChainsMatchReference holds hierarchy h's source over d, built by
// SourceFromDataset, to a string reference at every depth: referencePaths
// sorted lexicographically, a chain level's values the distinct prefixes of
// its length in that order, each one's parent the position of its own prefix
// one level up. BuildChain's values (Dict[Codes[i]]), Parent, ChildOff, Ext
// and AncestorIdx must all be the reference's. A dataset of no paths must
// build a source whose every chain is refused.
func checkChainsMatchReference(t *testing.T, label string, d *data.Dataset, h data.Hierarchy) {
	t.Helper()
	src, err := SourceFromDataset(d, h)
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	paths := referencePaths(d, h)
	slices.SortFunc(paths, slices.Compare)
	for depth := 1; depth <= len(h.Attrs); depth++ {
		ch, err := BuildChain(src, depth)
		if len(paths) == 0 {
			if err == nil {
				t.Errorf("%s depth %d: a source of no paths built a chain", label, depth)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s depth %d: %v", label, depth, err)
			continue
		}
		if ch.Depth() != depth || !slices.Equal(ch.Attrs, h.Attrs[:depth]) {
			t.Errorf("%s depth %d: chain depth %d over %v", label, depth, ch.Depth(), ch.Attrs)
			continue
		}
		// pos[l] numbers the distinct (l+1)-prefixes in path order; leafOf
		// is each sorted path's deepest prefix.
		pos := make([]map[string]int, depth)
		for l := range pos {
			pos[l] = make(map[string]int)
		}
		var leafOf []int
		for _, p := range paths {
			for l := range depth {
				key := data.EncodeKey(p[:l+1])
				if _, ok := pos[l][key]; !ok {
					pos[l][key] = len(pos[l])
				}
			}
			leafOf = append(leafOf, pos[depth-1][data.EncodeKey(p[:depth])])
		}
		vals, parent, ext := make([][]string, depth), make([][]int, depth), make([][]int, depth)
		for l := range depth {
			vals[l], ext[l] = make([]string, len(pos[l])), make([]int, len(pos[l]))
			if l > 0 {
				parent[l] = make([]int, len(pos[l]))
			}
			seen := make(map[string]bool)
			for _, p := range paths {
				i := pos[l][data.EncodeKey(p[:l+1])]
				vals[l][i] = p[l]
				if l > 0 {
					parent[l][i] = pos[l-1][data.EncodeKey(p[:l])]
				}
				if leaf := data.EncodeKey(p[:depth]); !seen[leaf] {
					seen[leaf] = true
					ext[l][i]++
				}
			}
		}
		for l, lv := range ch.Levels {
			var childOff []int
			if l+1 < depth {
				childOff = make([]int, len(vals[l])+1)
				for _, pi := range parent[l+1] {
					childOff[pi+1]++
				}
				for i := 1; i < len(childOff); i++ {
					childOff[i] += childOff[i-1]
				}
			}
			if lv.Attr != h.Attrs[l] || !slices.Equal(levelVals(lv), vals[l]) || !slices.Equal(lv.Parent, parent[l]) ||
				!slices.Equal(lv.ChildOff, childOff) || !slices.Equal(lv.Ext, ext[l]) {
				t.Errorf("%s depth %d level %d: chain != string reference:\n got %s %v parent %v childOff %v ext %v\nwant %s %v parent %v childOff %v ext %v",
					label, depth, l, lv.Attr, levelVals(lv), lv.Parent, lv.ChildOff, lv.Ext, h.Attrs[l], vals[l], parent[l], childOff, ext[l])
				continue
			}
			for pi, p := range paths {
				if got, want := ch.AncestorIdx(l, leafOf[pi]), pos[l][data.EncodeKey(p[:l+1])]; got != want {
					t.Errorf("%s depth %d: AncestorIdx(%d, %d) = %d, want %d", label, depth, l, leafOf[pi], got, want)
					break
				}
			}
		}
		if ch.Leaves() != len(pos[depth-1]) {
			t.Errorf("%s depth %d: %d leaves, want %d", label, depth, ch.Leaves(), len(pos[depth-1]))
		}
	}
}

// TestSourceChainsMatchStringReference runs checkChainsMatchReference over
// random forests of two or three hierarchies of depth 1 to 4, whose values
// are named so that path order is not the order rows first show them, read by
// row scan, from an attached cube, and as a Where subset of the cubed
// dataset.
func TestSourceChainsMatchStringReference(t *testing.T) {
	for trial := range 20 {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		var hs []data.Hierarchy
		var dims []string
		for hi := range 2 + rng.Intn(2) {
			h := data.Hierarchy{Name: fmt.Sprintf("h%d", hi)}
			for l := range 1 + rng.Intn(4) {
				h.Attrs = append(h.Attrs, fmt.Sprintf("h%d_a%d", hi, l))
			}
			hs, dims = append(hs, h), append(dims, h.Attrs...)
		}
		// Each hierarchy's paths: a random tree whose node names carry a
		// random number, so siblings sort apart from their creation order.
		trees := make([][][]string, len(hs))
		for hi, h := range hs {
			var build func(prefix []string)
			build = func(prefix []string) {
				if len(prefix) == len(h.Attrs) {
					trees[hi] = append(trees[hi], slices.Clone(prefix))
					return
				}
				for range 1 + rng.Intn(4) {
					build(append(prefix, fmt.Sprintf("%s_%d_%d", h.Name, rng.Intn(1000), len(trees[hi]))))
				}
			}
			build(nil)
		}
		ds := data.New("forest", dims, []string{"m"}, hs)
		for range 50 + rng.Intn(300) {
			var vals []string
			for hi := range hs {
				vals = append(vals, trees[hi][rng.Intn(len(trees[hi]))]...)
			}
			ds.AppendRowVals(vals, []float64{rng.Float64()})
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cubed := ds.Clone()
		c, err := cube.Build(cubed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cubed.SetRollup(c)
		root := hs[0].Attrs[0]
		for _, h := range hs {
			checkChainsMatchReference(t, fmt.Sprintf("trial %d %s scan", trial, h.Name), ds, h)
			checkChainsMatchReference(t, fmt.Sprintf("trial %d %s cube", trial, h.Name), cubed, h)
			checkChainsMatchReference(t, fmt.Sprintf("trial %d %s subset", trial, h.Name),
				cubed.Where(data.Predicate{root: cubed.Dim(root)[0]}), h)
		}
	}
}
