package factor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Example 9 from Appendix G: R = [(a1,b1), (a1,b2), (a2,b1)] with no
// functional dependency. Marginalizing A must preserve the order of B's
// occurrences: the ordered COUNT list is [b1:1, b2:1, b1:1], with b1
// appearing as two distinct nodes.
func TestGeneralSourceExample9(t *testing.T) {
	src, err := NewGeneralSource("g", []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b2"}, {"a2", "b1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The strict NewSource rejects the same input.
	if _, err := NewSource("g", []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b2"}, {"a2", "b1"},
	}); err == nil {
		t.Fatal("NewSource should reject the FD violation")
	}
	ch, err := BuildChain(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Level B has three nodes in order: b1 (under a1), b2 (under a1),
	// b1 (under a2).
	bVals := ch.Levels[1].Vals
	if len(bVals) != 3 || bVals[0] != "b1" || bVals[1] != "b2" || bVals[2] != "b1" {
		t.Fatalf("B nodes = %v, want [b1 b2 b1]", bVals)
	}
	if ch.Levels[1].Parent[0] != 0 || ch.Levels[1].Parent[1] != 0 || ch.Levels[1].Parent[2] != 1 {
		t.Fatalf("B parents = %v", ch.Levels[1].Parent)
	}
	// Per-occurrence counts are all 1 — the ordered list of Example 9.
	f, err := New([]*Source{src}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	_, counts := f.CountVals(1)
	for i, c := range counts {
		if c != 1 {
			t.Errorf("occurrence %d count = %v, want 1", i, c)
		}
	}
	// ValueIndex resolves to the first occurrence.
	if ch.ValueIndex(1, "b1") != 0 {
		t.Errorf("ValueIndex(b1) = %d, want 0", ch.ValueIndex(1, "b1"))
	}
}

// randomGeneralFactorizer builds hierarchies WITHOUT the FD: child values
// are drawn from a small shared pool so the same value recurs under many
// parents.
func randomGeneralFactorizer(r *rand.Rand) *Factorizer {
	nh := 1 + r.Intn(2)
	srcs := make([]*Source, nh)
	for h := 0; h < nh; h++ {
		depth := 1 + r.Intn(3)
		attrs := make([]string, depth)
		for l := range attrs {
			attrs[l] = fmt.Sprintf("g%d_a%d", h, l)
		}
		pool := make([]string, 3)
		for i := range pool {
			pool[i] = fmt.Sprintf("v%d", i)
		}
		var paths [][]string
		var build func(prefix []string, level int)
		build = func(prefix []string, level int) {
			if level == depth {
				paths = append(paths, append([]string(nil), prefix...))
				return
			}
			kids := 1 + r.Intn(3)
			for k := 0; k < kids; k++ {
				build(append(prefix, pool[r.Intn(len(pool))]), level+1)
			}
		}
		build(nil, 0)
		src, err := NewGeneralSource(fmt.Sprintf("g%d", h), attrs, paths)
		if err != nil {
			panic(err)
		}
		srcs[h] = src
	}
	depths := make([]int, nh)
	for h := range depths {
		depths[h] = 1 + r.Intn(len(srcs[h].Attrs))
	}
	f, err := New(srcs, depths)
	if err != nil {
		panic(err)
	}
	return f
}

// Property: the decomposed aggregates over general (non-FD) hierarchies
// still match brute-force enumeration, counting per occurrence.
func TestGeneralAggregatesMatchBruteForce(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(5000 + trial)))
		f := randomGeneralFactorizer(r)
		if f.N() > 3000 {
			continue
		}
		rows := rowValues(f)
		for i := 0; i < f.NumAttrs(); i++ {
			_, counts := f.CountVals(i)
			brute := make([]float64, len(counts))
			dup := f.N() / f.SufTotal(i)
			for _, row := range rows {
				brute[row[i]]++
			}
			for v := range counts {
				if brute[v]/dup != counts[v] {
					t.Fatalf("trial %d: COUNT[%d][node %d] = %v, want %v",
						trial, i, v, counts[v], brute[v]/dup)
				}
			}
		}
	}
}

// Property: the row iterator enumerates general chains consistently (every
// emitted change matches the materialized rows).
func TestGeneralRowIterConsistency(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(7000 + trial)))
		f := randomGeneralFactorizer(r)
		if f.N() > 2000 {
			continue
		}
		rows := rowValues(f)
		if len(rows) != int(f.N()) {
			t.Fatalf("trial %d: %d rows, want %v", trial, len(rows), f.N())
		}
		// Adjacent rows must differ (node indices make every path distinct
		// even when value strings repeat).
		for i := 1; i < len(rows); i++ {
			same := true
			for a := range rows[i] {
				if rows[i][a] != rows[i-1][a] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("trial %d: rows %d and %d identical", trial, i-1, i)
			}
		}
	}
}

func TestGeneralSourceDedupsIdenticalPaths(t *testing.T) {
	src, err := NewGeneralSource("g", []string{"A", "B"}, [][]string{
		{"a1", "b1"}, {"a1", "b1"}, {"a1", "b2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Paths) != 2 {
		t.Errorf("paths = %d, want 2 (identical tuples deduplicate)", len(src.Paths))
	}
}
