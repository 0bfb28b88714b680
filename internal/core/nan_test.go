package core

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// TestNaNScoresRankLast: a repair (or a custom fcomp) may yield NaN for some
// groups. A NaN score is no score: it ranks after every number inside a
// hierarchy, and a hierarchy whose best score is NaN loses to any hierarchy
// that has one — wherever the NaN sits in the input order.
func TestNaNScoresRankLast(t *testing.T) {
	sc := buildScenario(31)
	sc.corruptMean("d0_v2", "1993", -4)
	// Session over district alone: geo (→ village) is the first candidate
	// hierarchy, time (→ year) the second. Under d0 a village holds 60 rows
	// and a year 40, which is how the repairs below tell the two apart.
	complaint := Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple: data.Predicate{"district": "d0"}, Direction: TooLow,
	}
	toModel := func(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
		return s.WithAggregate(agg.Mean, pred[agg.Mean])
	}
	nan := func(s agg.Stats) agg.Stats {
		return agg.Stats{Count: s.Count, Sum: math.NaN(), SumSq: math.NaN()}
	}
	recommend := func(repair func(agg.Stats, map[agg.Func]float64) agg.Stats) *Recommendation {
		t.Helper()
		eng, err := NewEngine(sc.ds, Options{EMIterations: 5, Workers: 1, Repair: repair})
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession([]string{"district"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Recommend(complaint)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.All) != 2 || rec.All[0].Hierarchy != "geo" || rec.All[1].Hierarchy != "time" {
			t.Fatalf("candidates = %+v, want geo then time", rec.All)
		}
		return rec
	}

	// The first candidate hierarchy scores NaN everywhere: the other one wins.
	rec := recommend(func(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
		if s.Count == 60 {
			return nan(s)
		}
		return toModel(s, pred)
	})
	if !math.IsNaN(rec.All[0].BestScore) || math.IsNaN(rec.All[1].BestScore) {
		t.Fatalf("best scores geo %v, time %v: want NaN and a number", rec.All[0].BestScore, rec.All[1].BestScore)
	}
	if rec.Best.Hierarchy != "time" {
		t.Errorf("Best = %q with score %v, want the hierarchy that has a score", rec.Best.Hierarchy, rec.Best.BestScore)
	}

	// One group scores NaN — the first village in input order: it ranks
	// last, and the rest keep the order they have without it.
	want := recommend(toModel).All[0].Ranked
	first := slices.MinFunc(want, func(a, b GroupScore) int {
		return strings.Compare(a.Group.Key(), b.Group.Key())
	}).Group.Stats
	rec = recommend(func(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
		if s == first {
			return nan(s)
		}
		return toModel(s, pred)
	})
	got := rec.All[0].Ranked
	if len(got) != len(want) || !math.IsNaN(got[len(got)-1].Score) || got[len(got)-1].Group.Stats != first {
		t.Fatalf("ranked scores %v: want the NaN group last", scores(got))
	}
	var rest []GroupScore
	for _, gs := range want {
		if gs.Group.Stats != first {
			rest = append(rest, gs)
		}
	}
	for i, gs := range rest {
		if got[i].Group.Key() != gs.Group.Key() || got[i].Score != gs.Score {
			t.Fatalf("ranked scores %v, want %v then NaN", scores(got), scores(rest))
		}
	}
	if best := rec.All[0].BestScore; best != rest[0].Score {
		t.Errorf("geo best score %v, want its best number %v", best, rest[0].Score)
	}
}

func scores(ranked []GroupScore) []float64 {
	out := make([]float64, len(ranked))
	for i, gs := range ranked {
		out[i] = gs.Score
	}
	return out
}

// TestNaNRepairRefusedByMarshalJSON: TestNaNScoresRankLast's NaN repair
// leaves geo with NaN scores, which JSON has no number for. MarshalJSON
// refuses the recommendation with a *NonFiniteError naming the hierarchy and
// the field, and encoding/json passes it on unwrapped by errors.As.
func TestNaNRepairRefusedByMarshalJSON(t *testing.T) {
	sc := buildScenario(31)
	sc.corruptMean("d0_v2", "1993", -4)
	eng, err := NewEngine(sc.ds, Options{EMIterations: 5, Workers: 1, Repair: func(s agg.Stats, pred map[agg.Func]float64) agg.Stats {
		if s.Count == 60 {
			return agg.Stats{Count: s.Count, Sum: math.NaN(), SumSq: math.NaN()}
		}
		return s.WithAggregate(agg.Mean, pred[agg.Mean])
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession([]string{"district"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recommend(Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"district": "d0"}, Direction: TooLow})
	if err != nil {
		t.Fatal(err)
	}
	_, err = json.Marshal(rec)
	var nf *NonFiniteError
	if !errors.As(err, &nf) {
		t.Fatalf("json.Marshal error %v, want a *NonFiniteError", err)
	}
	if nf.Hierarchy != "geo" || nf.Field != "best_score" || !math.IsNaN(nf.Value) {
		t.Errorf("NonFiniteError = %+v, want geo's NaN best_score", nf)
	}
	if msg := err.Error(); !strings.Contains(msg, `"geo"`) || !strings.Contains(msg, "best_score") {
		t.Errorf("error message %q names neither the hierarchy nor the field", msg)
	}
	rec.All = rec.All[1:] // time alone scores numbers, and encodes
	if _, err := json.Marshal(rec); err != nil {
		t.Errorf("a finite recommendation: %v", err)
	}
}
