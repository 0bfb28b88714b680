package ingest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestRecoverFoldsAroundAPoisonedBatch logs a backlog with a poisoned batch
// in the middle and never applies it; recovery folds the backlog around the
// poisoned batch, which leaves no trace — not even the new value of its good
// row, which a later batch then brings in. Every shard's columns and cube
// cells equal those of a dataset that ingested the good batches live.
func TestRecoverFoldsAroundAPoisonedBatch(t *testing.T) {
	tail2 := []store.Row{row("Raya", "Raya-d", "1988", 5), row("Ofla", "Ofla-b", "1988", 1)}
	backlog := [][]store.Row{cleanBatch, tailBatch, poisonBatch, tail2}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := Options{Shards: shards, Cube: true, Engine: core.Options{EMIterations: 4, Workers: 1}}
			dir := t.TempDir()
			d, err := Recover(dir, "drought", baseSet(t), o)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range backlog {
				if _, err := d.Log(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Recover(dir, "drought", baseSet(t), o)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Skipped != uint64(len(poisonBatch)) {
				t.Errorf("recovery skipped %d rows, want the poisoned batch's %d", re.Skipped, len(poisonBatch))
			}

			ref, err := Open(baseSet(t), o)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]store.Row{cleanBatch, tailBatch, tail2} {
				if _, err := ref.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			sameSet(t, re.Version().Set, ref.Version().Set)
		})
	}
}

// sameSet fails unless two sets hold the same shards bit for bit: columns,
// dictionaries and cube cell tables.
func sameSet(t *testing.T, got, want *shard.Set) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%d shards, want %d", got.N(), want.N())
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for si, g := range got.Snaps {
		w := want.Snaps[si]
		if g.NumRows() != w.NumRows() {
			t.Fatalf("shard %d: %d rows, want %d", si, g.NumRows(), w.NumRows())
		}
		for ci, c := range g.Dims {
			if !slices.Equal(c.Dict, w.Dims[ci].Dict) || !slices.Equal(c.Codes, w.Dims[ci].Codes) {
				t.Errorf("shard %d: dimension %q differs: %v vs %v", si, c.Name, c.Dict, w.Dims[ci].Dict)
			}
		}
		for mi, m := range g.Measures {
			if !bits(m.Values, w.Measures[mi].Values) {
				t.Errorf("shard %d: measure %q differs", si, m.Name)
			}
		}
		if g.Cube() == nil || w.Cube() == nil {
			t.Fatalf("shard %d: cube %v, want %v", si, g.Cube() != nil, w.Cube() != nil)
		}
		gt, wt := g.Cube().Tables(), w.Cube().Tables()
		for li := range wt {
			same := len(gt) == len(wt) && slices.Equal(gt[li].Keys, wt[li].Keys) && bits(gt[li].Counts, wt[li].Counts)
			for mi := 0; same && mi < len(wt[li].Sums); mi++ {
				same = bits(gt[li].Sums[mi], wt[li].Sums[mi]) && bits(gt[li].SumSqs[mi], wt[li].SumSqs[mi])
			}
			if !same {
				t.Errorf("shard %d: cube level %d differs", si, li)
			}
		}
	}
}
