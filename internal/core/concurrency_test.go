package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
	"repro/internal/feature"
	"repro/internal/mlm"
)

// concurrencyComplaints builds one complaint per (district, year, aggregate)
// combination so concurrent sessions exercise distinct model fits.
func concurrencyComplaints() []Complaint {
	var out []Complaint
	aggs := []agg.Func{agg.Mean, agg.Count, agg.Sum, agg.Std}
	for d := 0; d < 3; d++ {
		for y, yr := range []string{"1990", "1992", "1995"} {
			out = append(out, Complaint{
				Agg:       aggs[(d+y)%len(aggs)],
				Measure:   "severity",
				Tuple:     data.Predicate{"district": fmt.Sprintf("d%d", d), "year": yr},
				Direction: TooLow,
			})
		}
	}
	return out
}

// TestConcurrentRecommendMatchesSequential runs concurrent Recommend calls
// from many sessions against one shared Engine — several sessions per
// complaint, so they contend for the same memo entries — and asserts every
// result is identical to a fresh sequential (Workers = 1) engine's. Run with
// -race.
func TestConcurrentRecommendMatchesSequential(t *testing.T) {
	const sessionsPerComplaint = 4
	for _, trainer := range []TrainerKind{TrainerNaive, TrainerAuto} {
		sc := buildScenario(11)
		sc.corruptMean("d2_v1", "1992", -4)

		// At least 4 workers so the pool path runs even on small machines.
		workers := runtime.NumCPU()
		if workers < 4 {
			workers = 4
		}
		parEng, err := NewEngine(sc.ds, Options{EMIterations: 8, Trainer: trainer, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}

		complaints := concurrencyComplaints()
		want := make([]*Recommendation, len(complaints))
		for i, c := range complaints {
			// A fresh engine per complaint: the reference shares nothing.
			seqEng, err := NewEngine(sc.ds, Options{EMIterations: 8, Trainer: trainer, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			s, err := seqEng.NewSession([]string{"district", "year"})
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = s.Recommend(c); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		for i, c := range complaints {
			for n := 0; n < sessionsPerComplaint; n++ {
				wg.Add(1)
				go func(i int, c Complaint) {
					defer wg.Done()
					s, err := parEng.NewSession([]string{"district", "year"})
					if err != nil {
						t.Errorf("trainer %v complaint %d: %v", trainer, i, err)
						return
					}
					got, err := s.Recommend(c)
					if err != nil {
						t.Errorf("trainer %v complaint %d: %v", trainer, i, err)
					} else if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("trainer %v complaint %d: parallel result differs from sequential", trainer, i)
					}
				}(i, c)
			}
		}
		wg.Wait()
	}
}

// TestConcurrentRecommendOneSession issues concurrent complaints against a
// single session, exercising the engine's memo under contention.
func TestConcurrentRecommendOneSession(t *testing.T) {
	sc := buildScenario(12)
	eng, err := NewEngine(sc.ds, Options{EMIterations: 6, Trainer: TrainerNaive, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	complaints := concurrencyComplaints()
	want := make([]*Recommendation, len(complaints))
	for i, c := range complaints {
		if want[i], err = s.Recommend(c); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Recommendation, len(complaints))
	errs := make([]error, len(complaints))
	var wg sync.WaitGroup
	for i, c := range complaints {
		wg.Add(1)
		go func(i int, c Complaint) {
			defer wg.Done()
			got[i], errs[i] = s.Recommend(c)
		}(i, c)
	}
	wg.Wait()
	for i := range complaints {
		if errs[i] != nil {
			t.Fatalf("complaint %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("complaint %d: cached concurrent result differs from first run", i)
		}
	}
}

// TestRecommendRacingDrill drills several sessions of one engine while their
// Recommend calls are in flight: each call must observe a coherent drill
// state — its answer is the old state's or the new state's, as a fresh engine
// computes them, never a torn mix.
func TestRecommendRacingDrill(t *testing.T) {
	sc := buildScenario(14)
	opts := Options{EMIterations: 3, Trainer: TrainerNaive, Workers: 4}
	c := Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple:     data.Predicate{"district": "d0"},
		Direction: TooLow,
	}
	var want []*Recommendation // before and after Drill("time")
	for _, groupBy := range [][]string{{"district"}, {"district", "year"}} {
		eng, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.NewSession(groupBy)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Recommend(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}

	eng, err := NewEngine(sc.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		s, err := eng.NewSession([]string{"district"})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					rec, err := s.Recommend(c)
					if err != nil {
						t.Errorf("racing Recommend: %v", err)
					} else if !reflect.DeepEqual(rec, want[0]) && !reflect.DeepEqual(rec, want[1]) {
						t.Error("racing Recommend matches neither drill state")
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Drill("time"); err != nil {
				t.Errorf("racing Drill: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentTrainCrossSharesFactorizer runs the per-statistic fits the
// way fitModels does — several trainCross calls on pool goroutines over one
// memoised factorizer, here a fresh one nothing has read yet — and asserts
// each equals a sequential fit over a factorizer of its own. Whatever a fit
// derives from the factorizer (transition tables, counts, clusters) must be
// private to the fit or safely published. Run with -race.
func TestConcurrentTrainCrossSharesFactorizer(t *testing.T) {
	sc := buildScenario(13)
	depth := map[string]int{"geo": 1, "time": 1}
	stats := []agg.Func{agg.Mean, agg.Count, agg.Std, agg.Sum}
	for _, materialize := range []bool{false, true} {
		fit := func(eng *Engine, stat agg.Func) []float64 {
			h := eng.ds.Hierarchies[0]
			groups, err := eng.groups(nil, eng.drillAttrs(h, depth), "severity")
			if err != nil {
				t.Error(err)
				return nil
			}
			fs, y, err := eng.fitInputs(groups, stat)
			if err != nil {
				t.Error(err)
				return nil
			}
			fz, err := eng.factorizer(h, depth, "severity")
			if err != nil {
				t.Error(err)
				return nil
			}
			sm, err := trainCross(fz, groups, fs, y, mlm.Options{Iterations: 5}, ZAuto, materialize)
			if err != nil {
				t.Error(err)
				return nil
			}
			return sm.preds
		}
		newEngine := func() *Engine {
			eng, err := NewEngine(sc.ds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		want := make([][]float64, len(stats))
		for i, stat := range stats {
			want[i] = fit(newEngine(), stat)
		}
		shared := newEngine()
		got := make([][]float64, len(stats))
		var wg sync.WaitGroup
		for i, stat := range stats {
			wg.Add(1)
			go func(i int, stat agg.Func) {
				defer wg.Done()
				got[i] = fit(shared, stat)
			}(i, stat)
		}
		wg.Wait()
		for i := range stats {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("materialize=%v %v: concurrent fit over the shared factorizer differs from the sequential one", materialize, stats[i])
			}
		}
	}
}

// TestConcurrentFitsShareLazyGroupIndex has concurrent fits read one memoised
// group-by through agg.Result.Get: a SUM complaint fits its MEAN and COUNT
// models side by side, a lag feature makes each look groups up by key, and
// the result's key index is built lazily by whichever look-up comes first.
// The race detector is the assertion that it is built once; the results must
// also match an engine that shares nothing. Run with -race.
func TestConcurrentFitsShareLazyGroupIndex(t *testing.T) {
	sc := buildScenario(5)
	sc.corruptMean("d1_v2", "1993", 5)
	opts := Options{EMIterations: 6, Workers: 4, GroupFeatures: []feature.GroupFeature{feature.LagFeature("year", 1)}}
	c := Complaint{Agg: agg.Sum, Measure: "severity", Tuple: data.Predicate{"district": "d1", "year": "1993"}, Direction: TooHigh}

	recommend := func(eng *Engine) *Recommendation {
		s, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Error(err)
			return nil
		}
		rec, err := s.Recommend(c)
		if err != nil {
			t.Error(err)
		}
		return rec
	}
	for round := 0; round < 10; round++ {
		shared, err := NewEngine(sc.ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		seqOpts := opts
		seqOpts.Workers = 1
		fresh, err := NewEngine(sc.ds, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		want := recommend(fresh)
		got := make([]*Recommendation, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = recommend(shared)
			}()
		}
		wg.Wait()
		for i, rec := range got {
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("round %d caller %d: recommendation differs from the sequential engine's", round, i)
			}
		}
	}
}

// TestPredictGroupStatsZeroAttributes: the zero-attribute group-by is a
// legitimate aggregation (one group, the empty tuple) but has nothing to
// featurize; the fit must say so instead of indexing the first attribute.
func TestPredictGroupStatsZeroAttributes(t *testing.T) {
	eng, err := NewEngine(buildScenario(3).ds, Options{EMIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.PredictGroupStats(nil, "severity", agg.Mean)
	if err == nil || !strings.Contains(err.Error(), "feature: no attributes to featurize") {
		t.Fatalf("PredictGroupStats(nil) error = %v, want feature: no attributes to featurize", err)
	}
}
