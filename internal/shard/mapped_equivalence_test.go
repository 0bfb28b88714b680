package shard_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestMappedRecommendByteIdentity asserts, for each dataset the examples/
// programs run on, that serving a persisted snapshot out of a memory-mapped
// file produces byte-identical Recommendation JSON to the eager open of the
// same file — unsharded with and without a stored cube, and partitioned at
// 1, 2 and 4 shards (with runtime cubes at 2) — for a fresh session and,
// where the hierarchies leave a second candidate, after a drill. This is the
// acceptance gate for the streaming execution paths: every aggregation a
// mapped engine runs (streamed group-bys, cursor-fed cubes, distinct-path
// extraction) must reproduce the slice-backed results bit for bit.
func TestMappedRecommendByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("mapped equivalence sweep is not short")
	}
	cases := []struct {
		name    string
		ds      *data.Dataset
		groupBy []string
		fresh   core.Complaint
		drill   string
		drilled core.Complaint
	}{
		{
			name:    "quickstart",
			ds:      quickstartDataset(),
			groupBy: []string{"district"},
			fresh:   core.Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "Ofla"}, Direction: core.TooHigh},
			drill:   "time",
			drilled: core.Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "Ofla", "year": "1986"}, Direction: core.TooHigh},
		},
		{
			name:    "drought",
			ds:      datasets.GenerateFIST(11).DS,
			groupBy: []string{"region"},
			fresh:   core.Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"region": "Tigray"}, Direction: core.TooLow},
			drill:   "time",
			drilled: core.Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"region": "Tigray", "year": "y2010"}, Direction: core.TooLow},
		},
		{
			name:    "covid",
			ds:      datasets.GenerateCovidUS(3),
			groupBy: []string{"day"},
			fresh:   core.Complaint{Agg: agg.Sum, Measure: "confirmed", Tuple: data.Predicate{"day": "d070"}, Direction: core.TooLow},
		},
		{
			name:    "vote",
			ds:      datasets.GenerateVote(9).DS,
			groupBy: nil,
			fresh:   core.Complaint{Agg: agg.Mean, Measure: "pct2020", Tuple: data.Predicate{}, Direction: core.TooLow},
			drill:   "location",
			drilled: core.Complaint{Agg: agg.Mean, Measure: "pct2020", Tuple: data.Predicate{"state": "Georgia"}, Direction: core.TooLow},
		},
		{
			name:    "absentee",
			ds:      datasets.GenerateAbsentee(5, 3000),
			groupBy: nil,
			fresh:   core.Complaint{Agg: agg.Count, Measure: "one", Tuple: data.Predicate{}, Direction: core.TooHigh},
			drill:   "party",
			drilled: core.Complaint{Agg: agg.Count, Measure: "one", Tuple: data.Predicate{}, Direction: core.TooHigh},
		},
	}
	opts := core.Options{EMIterations: 4, Workers: 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, withCube := range []bool{false, true} {
				name := "single"
				if withCube {
					name += "+cube"
				}
				t.Run(name, func(t *testing.T) {
					snap := store.FromDataset(tc.ds)
					if withCube {
						if err := snap.BuildCube(); err != nil {
							t.Fatal(err)
						}
					}
					path := filepath.Join(dir, name+".rst")
					if err := snap.WriteFile(path); err != nil {
						t.Fatal(err)
					}
					eager, err := store.OpenFile(path)
					if err != nil {
						t.Fatal(err)
					}
					mapped, err := store.OpenMappedFile(path)
					if err != nil {
						t.Fatal(err)
					}
					defer mapped.Close()
					if !mapped.Mapped() {
						t.Fatal("snapshot did not open mapped")
					}
					if withCube && mapped.Cube() == nil {
						t.Fatal("mapped open dropped the stored cube")
					}
					comparePairs(t, snapshotEngine(t, eager, opts), snapshotEngine(t, mapped, opts), tc.groupBy, tc.fresh, tc.drill, tc.drilled)
				})
			}
			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					set, err := shard.Partition(store.FromDataset(tc.ds), n, "")
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(dir, fmt.Sprintf("shards%d.rst", n))
					if err := set.WriteFile(path); err != nil {
						t.Fatal(err)
					}
					eager, err := shard.Open(path, false)
					if err != nil {
						t.Fatal(err)
					}
					mapped, err := shard.Open(path, true)
					if err != nil {
						t.Fatal(err)
					}
					defer mapped.Close()
					if n == 2 {
						// Runtime cubes over cursor-backed shards: one
						// configuration is enough to pin the cube build path.
						if err := eager.BuildCubes(); err != nil {
							t.Fatal(err)
						}
						if err := mapped.BuildCubes(); err != nil {
							t.Fatal(err)
						}
					}
					eagerEng, err := eager.Engine(opts)
					if err != nil {
						t.Fatal(err)
					}
					mappedEng, err := mapped.Engine(opts)
					if err != nil {
						t.Fatal(err)
					}
					comparePairs(t, eagerEng, mappedEng, tc.groupBy, tc.fresh, tc.drill, tc.drilled)
				})
			}
		})
	}
}

// snapshotEngine builds a core engine over a snapshot's dataset.
func snapshotEngine(t *testing.T, snap *store.Snapshot, opts core.Options) *core.Engine {
	t.Helper()
	ds, err := snap.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// comparePairs evaluates the fresh/drilled complaints on both engines and
// asserts byte-identical recommendation JSON.
func comparePairs(t *testing.T, eager, mapped *core.Engine, groupBy []string, fresh core.Complaint, drill string, drilled core.Complaint) {
	t.Helper()
	wantFresh, wantDrilled := recommendPair(t, eager, groupBy, fresh, drill, drilled)
	gotFresh, gotDrilled := recommendPair(t, mapped, groupBy, fresh, drill, drilled)
	if !bytes.Equal(gotFresh, wantFresh) {
		t.Errorf("fresh recommendation differs from eager open:\nmapped: %.400s\neager:  %.400s", gotFresh, wantFresh)
	}
	if !bytes.Equal(gotDrilled, wantDrilled) {
		t.Errorf("drilled recommendation differs from eager open:\nmapped: %.400s\neager:  %.400s", gotDrilled, wantDrilled)
	}
}
