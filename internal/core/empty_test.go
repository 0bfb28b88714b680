package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/store"
)

// moveGroup relabels every row of (village, year) into another year — the
// FIST "year confusion" error, which makes the (village, year) group vanish
// entirely from the drill-down.
func (sc *scenario) moveGroup(village, fromYear, toYear string) {
	vcol := sc.ds.Dim("village")
	ycol := sc.ds.Dim("year")
	for i := range ycol {
		if vcol[i] == village && ycol[i] == fromYear {
			sc.ds.SetDimValue("year", i, toYear)
		}
	}
}

// A group that vanished entirely must still be rankable: the engine
// enumerates empty drill-down groups from the hierarchy and scores them with
// model predictions (the paper's empty parallel groups).
func TestRecommendFindsVanishedGroup(t *testing.T) {
	sc := buildScenario(21)
	sc.moveGroup("d2_v1", "1993", "1994")
	eng, err := NewEngine(sc.ds, Options{EMIterations: 10, Trainer: TrainerNaive})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recommend(Complaint{
		Agg:       agg.Count,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d2", "year": "1993"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := rec.Best.Ranked[0]
	found := false
	for _, v := range top.Group.Vals {
		if v == "d2_v1" {
			found = true
		}
	}
	if !found {
		t.Errorf("top group = %v, want the vanished village d2_v1", top.Group.Vals)
	}
	if top.Group.Stats.Count != 0 {
		t.Errorf("vanished group count = %v, want 0", top.Group.Stats.Count)
	}
	// Its predicted count should be near the regular group size (10).
	if p := top.Predicted[agg.Count]; p < 5 || p > 15 {
		t.Errorf("predicted count = %v, want ≈10", p)
	}
}

// TestVanishedGroupWithCube reruns the vanished-group scenario with a
// materialized cube attached: the drilled relation then comes from the cube's
// cells instead of a row scan, the empty drill-down candidates are read off it
// either way, and the whole recommendation must stay byte-identical to the
// scan engine's.
func TestVanishedGroupWithCube(t *testing.T) {
	sc := buildScenario(21)
	sc.moveGroup("d2_v1", "1993", "1994")
	complaint := Complaint{
		Agg:       agg.Count,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d2", "year": "1993"},
		Direction: TooLow,
	}
	var recs [][]byte
	for _, withCube := range []bool{false, true} {
		snap := store.FromDataset(sc.ds)
		if withCube {
			if err := snap.BuildCube(); err != nil {
				t.Fatal(err)
			}
			if snap.Cube() == nil {
				t.Fatal("scenario dataset did not materialize a cube")
			}
		}
		ds, err := snap.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(ds, Options{EMIterations: 10, Trainer: TrainerNaive, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Recommend(complaint)
		if err != nil {
			t.Fatal(err)
		}
		if top := rec.Best.Ranked[0]; top.Group.Stats.Count != 0 {
			t.Errorf("withCube=%v: top group %v has count %v, want the vanished (empty) group",
				withCube, top.Group.Vals, top.Group.Stats.Count)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b)
	}
	if !bytes.Equal(recs[0], recs[1]) {
		t.Errorf("cube-backed empty-group discovery changed the recommendation:\nscan: %.300s\ncube: %.300s", recs[0], recs[1])
	}
}

// The full-materialization trainer (the Figure 10 Matlab regime) must agree
// with the factorised trainer on rankings.
func TestNaiveFullMatchesFactorised(t *testing.T) {
	sc := buildScenario(22)
	sc.corruptMean("d1_v1", "1991", -4)
	complaint := Complaint{
		Agg:       agg.Mean,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d1", "year": "1991"},
		Direction: TooLow,
	}
	var tops [2]string
	for i, kind := range []TrainerKind{TrainerFactorised, TrainerNaiveFull} {
		eng, err := NewEngine(sc.ds.Clone(), Options{EMIterations: 8, Trainer: kind})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := eng.NewSession([]string{"district", "year"})
		rec, err := s.Recommend(complaint)
		if err != nil {
			t.Fatal(err)
		}
		tops[i] = rec.Best.Ranked[0].Group.Key()
	}
	if tops[0] != tops[1] {
		t.Errorf("factorised top %q != naive-full top %q", tops[0], tops[1])
	}
}

// A user-provided frepair (§3.1) overrides the default model-based repair.
func TestCustomRepairFunction(t *testing.T) {
	sc := buildScenario(24)
	sc.corruptMean("d0_v0", "1990", -4)
	// An identity repair: nothing changes, so every gain is ~0 and the
	// complaint cannot be resolved.
	eng, err := NewEngine(sc.ds, Options{
		EMIterations: 5, Trainer: TrainerNaive,
		Repair: func(s agg.Stats, _ map[agg.Func]float64) agg.Stats { return s },
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := eng.NewSession([]string{"district", "year"})
	rec, err := s.Recommend(Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple:     data.Predicate{"district": "d0", "year": "1990"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range rec.Best.Ranked {
		if gs.Gain > 1e-9 || gs.Gain < -1e-9 {
			t.Fatalf("identity repair produced gain %v", gs.Gain)
		}
	}
	// A bounded repair (the Appendix M relaxation): means may move at most
	// 1.0 toward the prediction. The corrupted village still ranks first,
	// with a capped gain.
	eng2, err := NewEngine(sc.ds, Options{
		EMIterations: 10, Trainer: TrainerNaive,
		Repair: func(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
			want := pred[agg.Mean]
			cur := s.Mean()
			delta := want - cur
			if delta > 1 {
				delta = 1
			} else if delta < -1 {
				delta = -1
			}
			return s.WithAggregate(agg.Mean, cur+delta)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := eng2.NewSession([]string{"district", "year"})
	rec2, err := s2.Recommend(Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple:     data.Predicate{"district": "d0", "year": "1990"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := rec2.Best.Ranked[0]
	found := false
	for _, v := range top.Group.Vals {
		if v == "d0_v0" {
			found = true
		}
	}
	if !found {
		t.Errorf("bounded repair top group = %v, want d0_v0", top.Group.Vals)
	}
	// The capped repair can move the district mean by at most 1/numVillages.
	if top.Gain > 0.3 {
		t.Errorf("bounded repair gain = %v, want ≤ ~0.25", top.Gain)
	}
}

func TestZBackendSelection(t *testing.T) {
	sc := buildScenario(23)
	for _, re := range []RandomEffects{ZAuto, ZFull, ZIntercept} {
		eng, err := NewEngine(sc.ds.Clone(), Options{
			EMIterations: 4, Trainer: TrainerNaive, RandomEffects: re,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := eng.NewSession([]string{"district", "year"})
		if _, err := s.Recommend(Complaint{
			Agg: agg.Mean, Measure: "severity",
			Tuple:     data.Predicate{"district": "d0", "year": "1990"},
			Direction: TooLow,
		}); err != nil {
			t.Errorf("RandomEffects %v: %v", re, err)
		}
	}
}
