package core

import (
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// coldLeafOps is one cold recommend per (leaf pin state, aggregate): a fresh
// engine over ds and a session at the state, then one complaint.
func coldLeafOps(ds *data.Dataset) []func(*Engine) error {
	var ops []func(*Engine) error
	for si, groupBy := range leafPinStates {
		for fi, f := range []agg.Func{agg.Mean, agg.Std, agg.Sum, agg.Count} {
			c := leafComplaint(ds, groupBy, f, 97*(si*4+fi+1), fi)
			ops = append(ops, func(eng *Engine) error {
				sess, err := eng.NewSession(groupBy)
				if err != nil {
					return err
				}
				_, err = sess.Recommend(c)
				return err
			})
		}
	}
	return ops
}

// BenchmarkColdRecommendLeaf is deep_fit's operation on the leaf fixture: a
// fresh engine per op over a cube-attached dataset, so every op re-reads the
// drilled relation (≈ 10k groups) from the cube and fits cold. The ops cycle
// through the three leaf pin states and the four aggregates.
func BenchmarkColdRecommendLeaf(b *testing.B) {
	ds := leafEngine(b, leafDataset(1), leafConfig{cube: true, shards: 1}).Dataset()
	ops := coldLeafOps(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(ds, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := ops[i%len(ops)](eng); err != nil {
			b.Fatal(err)
		}
	}
}

// coldLeafBudget bounds the bytes one cold leaf recommend allocates on one
// worker, averaged over the pin states and aggregates: the coded drilled
// relation's figure (2.71 MB on linux/amd64) plus 15 %. Decoding the whole
// drilled relation into strings adds ≈ 1.4 MB, which the budget does not
// leave room for.
const coldLeafBudget = 3_120_000

// TestColdLeafRecommendAllocations holds a cold leaf recommend to its byte
// budget: strings are decoded only for the groups an answer returns and for
// hierarchy paths, not for the ≈ 10k groups of the drilled relation.
func TestColdLeafRecommendAllocations(t *testing.T) {
	ds := leafEngine(t, leafDataset(1), leafConfig{cube: true, shards: 1}).Dataset()
	ops := coldLeafOps(ds)
	const runs = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		for _, op := range ops {
			eng, err := NewEngine(ds, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := op(eng); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(ops))
	t.Logf("%.0f bytes per cold leaf recommend", perOp)
	if perOp > coldLeafBudget {
		t.Errorf("a cold leaf recommend allocates %.0f bytes, budget %d", perOp, coldLeafBudget)
	}
}
