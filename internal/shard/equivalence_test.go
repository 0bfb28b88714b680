package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/shard"
	"repro/internal/store"
)

// quickstartDataset rebuilds the examples/quickstart survey (same generator,
// same seed as examples/quickstart and store's round-trip test).
func quickstartDataset() *data.Dataset {
	rng := rand.New(rand.NewSource(7))
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	ds := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	villages := map[string][]string{
		"Ofla": {"Adishim", "Darube", "Dinka", "Fala", "Zata"},
		"Raya": {"Kukufto", "Mehoni", "Wajirat", "Chercher", "Bala"},
	}
	for _, year := range []string{"1984", "1985", "1986", "1987", "1988"} {
		for _, district := range []string{"Ofla", "Raya"} {
			for _, v := range villages[district] {
				base := 6.0
				if year == "1986" {
					base = 8
				}
				for i := 0; i < 6; i++ {
					sev := base + rng.NormFloat64()
					if v == "Zata" && year == "1986" {
						sev -= 5
					}
					ds.AppendRowVals([]string{district, v, year}, []float64{sev})
				}
			}
		}
	}
	return ds
}

// TestShardedRecommendByteIdentity asserts, for each dataset the examples/
// programs run on, that the sharded engine at 1, 2 and 4 shards produces
// byte-identical Recommendation JSON to the unsharded engine — for a fresh
// session and, where the hierarchies leave a second candidate, after a drill,
// on the engine as built and again on the engine the first session warmed.
// The default shard key (the first hierarchy's root) keeps every candidate
// grouping either shard-pure or over an integer measure, the two conditions
// the byte-identity guarantee rests on (see the package documentation).
func TestShardedRecommendByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence sweep is not short")
	}
	cases := []struct {
		name    string
		ds      *data.Dataset
		groupBy []string
		// fresh is evaluated first; drill ("" = skip) then advances the
		// session and drilled is evaluated at the deeper state.
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
			// Drilling location exhausts both hierarchies, so no drilled rec.
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
			snap := store.FromDataset(tc.ds)
			ds, err := snap.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantFresh, wantDrilled := recommendPair(t, ref, tc.groupBy, tc.fresh, tc.drill, tc.drilled)
			for _, n := range []int{1, 2, 4} {
				for _, cubes := range []bool{false, true} {
					if cubes && n != 2 {
						continue // one cube-backed configuration is enough
					}
					name := fmt.Sprintf("shards=%d", n)
					if cubes {
						name += "+cubes"
					}
					t.Run(name, func(t *testing.T) {
						set, err := shard.Partition(snap, n, "")
						if err != nil {
							t.Fatal(err)
						}
						if cubes {
							if err := set.BuildCubes(); err != nil {
								t.Fatal(err)
							}
						}
						eng, err := set.Engine(opts)
						if err != nil {
							t.Fatal(err)
						}
						// The second session runs on the engine the first one
						// warmed; the reference engine above was fresh.
						for _, leg := range []string{"cold", "warm"} {
							gotFresh, gotDrilled := recommendPair(t, eng, tc.groupBy, tc.fresh, tc.drill, tc.drilled)
							if !bytes.Equal(gotFresh, wantFresh) {
								t.Errorf("%s engine: fresh recommendation differs from unsharded:\nsharded:   %.400s\nunsharded: %.400s", leg, gotFresh, wantFresh)
							}
							if !bytes.Equal(gotDrilled, wantDrilled) {
								t.Errorf("%s engine: drilled recommendation differs from unsharded:\nsharded:   %.400s\nunsharded: %.400s", leg, gotDrilled, wantDrilled)
							}
						}
					})
				}
			}
		})
	}
}

// recommendPair evaluates the fresh complaint, optionally drills, and
// evaluates the drilled complaint, returning both recommendations' canonical
// JSON (nil for a skipped drill).
func recommendPair(t *testing.T, eng *core.Engine, groupBy []string, fresh core.Complaint, drill string, drilled core.Complaint) ([]byte, []byte) {
	t.Helper()
	sess, err := eng.NewSession(groupBy)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Recommend(fresh)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if drill == "" {
		return freshJSON, nil
	}
	if err := sess.Drill(drill); err != nil {
		t.Fatal(err)
	}
	rec, err = sess.Recommend(drilled)
	if err != nil {
		t.Fatal(err)
	}
	drilledJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return freshJSON, drilledJSON
}
