package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/data"
)

// scenario builds a two-hierarchy drought dataset with additive district and
// year effects, and lets the caller corrupt it before the engine runs.
type scenario struct {
	ds       *data.Dataset
	villages []string
	years    []string
}

func buildScenario(seed int64) *scenario {
	rng := rand.New(rand.NewSource(seed))
	h := []data.Hierarchy{
		{Name: "geo", Attrs: []string{"district", "village"}},
		{Name: "time", Attrs: []string{"year"}},
	}
	ds := data.New("drought", []string{"district", "village", "year"}, []string{"severity"}, h)
	sc := &scenario{ds: ds}
	distEffect := map[string]float64{}
	for d := 0; d < 5; d++ {
		distEffect[fmt.Sprintf("d%d", d)] = rng.NormFloat64() * 2
	}
	yearEffect := map[string]float64{}
	for y := 0; y < 6; y++ {
		yearEffect[fmt.Sprintf("199%d", y)] = rng.NormFloat64() * 2
		sc.years = append(sc.years, fmt.Sprintf("199%d", y))
	}
	for d := 0; d < 5; d++ {
		dist := fmt.Sprintf("d%d", d)
		for v := 0; v < 4; v++ {
			vil := fmt.Sprintf("%s_v%d", dist, v)
			sc.villages = append(sc.villages, vil)
			for _, yr := range sc.years {
				base := 10 + distEffect[dist] + yearEffect[yr]
				for r := 0; r < 10; r++ {
					ds.AppendRowVals([]string{dist, vil, yr}, []float64{base + rng.NormFloat64()})
				}
			}
		}
	}
	return sc
}

// corruptMean shifts every severity of (village, year) by delta.
func (sc *scenario) corruptMean(village, year string, delta float64) {
	vcol := sc.ds.Dim("village")
	ycol := sc.ds.Dim("year")
	ms := sc.ds.Measure("severity")
	for i := range ms {
		if vcol[i] == village && ycol[i] == year {
			ms[i] += delta
		}
	}
}

// dropHalf removes half of the rows of (village, year).
func (sc *scenario) dropHalf(village, year string) {
	vcol := sc.ds.Dim("village")
	ycol := sc.ds.Dim("year")
	var keep []int
	dropped := 0
	for i := 0; i < sc.ds.NumRows(); i++ {
		if vcol[i] == village && ycol[i] == year && dropped < 5 {
			dropped++
			continue
		}
		keep = append(keep, i)
	}
	sc.ds = sc.ds.Select(keep)
}

func TestDirectionAndEval(t *testing.T) {
	c := Complaint{Direction: TooHigh}
	if c.Eval(5) != 5 {
		t.Error("TooHigh eval wrong")
	}
	c.Direction = TooLow
	if c.Eval(5) != -5 {
		t.Error("TooLow eval wrong")
	}
	c.Direction = ShouldBe
	c.Target = 7
	if c.Eval(5) != 2 {
		t.Error("ShouldBe eval wrong")
	}
	for _, d := range []Direction{TooHigh, TooLow, ShouldBe} {
		if d.String() == "" {
			t.Error("empty Direction string")
		}
	}
	if Direction(9).String() == "" {
		t.Error("unknown Direction should render")
	}
}

func TestSessionValidation(t *testing.T) {
	sc := buildScenario(1)
	eng, err := NewEngine(sc.ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.NewSession([]string{"bogus"}); err == nil {
		t.Error("expected unknown-attribute error")
	}
	// village without district is not a prefix.
	if _, err := eng.NewSession([]string{"village"}); err == nil {
		t.Error("expected non-prefix error")
	}
	s, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	gb := s.GroupBy()
	if len(gb) != 2 || gb[0] != "district" || gb[1] != "year" {
		t.Errorf("GroupBy = %v", gb)
	}
}

func TestNewEngineRejectsBadData(t *testing.T) {
	ds := data.New("x", []string{"a"}, []string{"m"}, nil)
	ds.AppendRowVals([]string{"v"}, []float64{1})
	if _, err := NewEngine(ds, Options{}); err == nil {
		t.Error("expected error for dataset without hierarchies")
	}
	bad := data.New("x", []string{"a"}, []string{"m"},
		[]data.Hierarchy{{Name: "h", Attrs: []string{"missing"}}})
	if _, err := NewEngine(bad, Options{}); err == nil {
		t.Error("expected validation error")
	}
}

// TestNewEngineRechecksFDAfterRowWrite: a dataset remembers the FDs it has
// verified, and a row write forgets them — an FD broken after a successful
// Validate still stops the engine.
func TestNewEngineRechecksFDAfterRowWrite(t *testing.T) {
	sc := buildScenario(5)
	if err := sc.ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(sc.ds, Options{}); err != nil {
		t.Fatal(err)
	}
	sc.ds.SetDimValue("district", 0, "d4") // row 0's village, d0_v0, now lies in d0 and d4
	if _, err := NewEngine(sc.ds, Options{}); err == nil || !strings.Contains(err.Error(), "FD violation") {
		t.Fatalf("NewEngine after an FD-breaking write: err = %v, want an FD violation", err)
	}
}

func TestRecommendFindsMeanError(t *testing.T) {
	sc := buildScenario(2)
	sc.corruptMean("d2_v1", "1993", -4)
	eng, err := NewEngine(sc.ds, Options{EMIterations: 10, Trainer: TrainerNaive})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession([]string{"district", "year"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recommend(Complaint{
		Agg:       agg.Mean,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d2", "year": "1993"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Hierarchy != "geo" || rec.Best.Attr != "village" {
		t.Fatalf("best drill = %s/%s, want geo/village", rec.Best.Hierarchy, rec.Best.Attr)
	}
	top := rec.Best.Ranked[0]
	if v, _ := top.Group.Value([]string{"year", "district", "village"}, "village"); v != "d2_v1" {
		// Attrs order: time first (year), then district, village.
		t.Errorf("top group = %v, want d2_v1", top.Group.Vals)
	}
	if top.Gain <= 0 {
		t.Errorf("top gain = %v, want > 0", top.Gain)
	}
}

func TestRecommendFindsCountError(t *testing.T) {
	sc := buildScenario(3)
	sc.dropHalf("d1_v2", "1994")
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
		Tuple:     data.Predicate{"district": "d1", "year": "1994"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best.Hierarchy != "geo" {
		t.Fatalf("best hierarchy = %s, want geo", rec.Best.Hierarchy)
	}
	top := rec.Best.Ranked[0]
	found := false
	for _, v := range top.Group.Vals {
		if v == "d1_v2" {
			found = true
		}
	}
	if !found {
		t.Errorf("top group = %v, want d1_v2", top.Group.Vals)
	}
	// The count prediction should be near 10 (the regular group size).
	if p := top.Predicted[agg.Count]; math.Abs(p-10) > 3 {
		t.Errorf("predicted count = %v, want ≈10", p)
	}
}

func TestRecommendStdComplaint(t *testing.T) {
	sc := buildScenario(4)
	// A single village with a strongly shifted mean inflates the district's
	// std of the year.
	sc.corruptMean("d3_v0", "1991", -6)
	eng, err := NewEngine(sc.ds, Options{EMIterations: 10, Trainer: TrainerNaive})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := eng.NewSession([]string{"district", "year"})
	rec, err := s.Recommend(Complaint{
		Agg:       agg.Std,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d3", "year": "1991"},
		Direction: TooHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := rec.Best.Ranked[0]
	found := false
	for _, v := range top.Group.Vals {
		if v == "d3_v0" {
			found = true
		}
	}
	if !found {
		t.Errorf("top group = %v, want d3_v0", top.Group.Vals)
	}
}

func TestNaiveAndFactorisedAgreeOnCompleteCross(t *testing.T) {
	sc := buildScenario(5)
	sc.corruptMean("d0_v3", "1992", -4)
	complaint := Complaint{
		Agg:       agg.Mean,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d0", "year": "1992"},
		Direction: TooLow,
	}
	var tops [2]string
	for i, kind := range []TrainerKind{TrainerNaive, TrainerFactorised} {
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
		if rec.Best.Hierarchy != "geo" {
			t.Fatalf("trainer %d best hierarchy = %s", i, rec.Best.Hierarchy)
		}
	}
	if tops[0] != tops[1] {
		t.Errorf("naive top %q != factorised top %q", tops[0], tops[1])
	}
}

func TestTrainerAutoSelectsFactorisedOnCompleteCross(t *testing.T) {
	sc := buildScenario(6)
	eng, err := NewEngine(sc.ds, Options{EMIterations: 5, Trainer: TrainerAuto})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := eng.NewSession([]string{"district", "year"})
	if _, err := s.Recommend(Complaint{
		Agg:       agg.Mean,
		Measure:   "severity",
		Tuple:     data.Predicate{"district": "d0", "year": "1990"},
		Direction: TooLow,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDrillAdvancesSession(t *testing.T) {
	sc := buildScenario(7)
	eng, _ := NewEngine(sc.ds, Options{})
	s, _ := eng.NewSession([]string{"district"})
	if err := s.Drill("geo"); err != nil {
		t.Fatal(err)
	}
	gb := s.GroupBy()
	if len(gb) != 2 || gb[1] != "village" {
		t.Errorf("GroupBy after drill = %v", gb)
	}
	if err := s.Drill("geo"); err == nil {
		t.Error("expected fully-drilled error")
	}
	if err := s.Drill("bogus"); err == nil {
		t.Error("expected unknown-hierarchy error")
	}
}

func TestRecommendErrors(t *testing.T) {
	sc := buildScenario(8)
	eng, _ := NewEngine(sc.ds, Options{EMIterations: 2})
	s, _ := eng.NewSession([]string{"district", "year"})
	if _, err := s.Recommend(Complaint{Agg: agg.Mean, Tuple: data.Predicate{"district": "d0"}}); err == nil {
		t.Error("expected missing-measure error")
	}
	if _, err := s.Recommend(Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple: data.Predicate{"district": "nowhere"},
	}); err == nil {
		t.Error("expected empty-provenance error")
	}
	// Regression: COUNT complaints over an unknown measure used to slip past
	// validation and panic inside the aggregation pipeline.
	if _, err := s.Recommend(Complaint{
		Agg: agg.Count, Measure: "bogus",
		Tuple: data.Predicate{"district": "d0"},
	}); err == nil {
		t.Error("expected unknown-measure error for count complaint")
	}
	// Fully drilled session has no candidates.
	s2, _ := eng.NewSession([]string{"district", "village", "year"})
	if _, err := s2.Recommend(Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple: data.Predicate{"district": "d0"},
	}); err == nil {
		t.Error("expected no-candidates error")
	}
}

// TestUnknownTupleAttributesReportOneError: a tuple naming several attributes
// outside the drill-down reports the same one — the first in sorted order — on
// every evaluation, not whichever the tuple map yields first.
func TestUnknownTupleAttributesReportOneError(t *testing.T) {
	sc := buildScenario(8)
	eng, _ := NewEngine(sc.ds, Options{EMIterations: 2})
	s, _ := eng.NewSession([]string{"district"})
	c := Complaint{Agg: agg.Mean, Measure: "severity", Direction: TooLow,
		Tuple: data.Predicate{"district": "d0", "zone": "z", "altitude": "high"}}
	const want = `core: evaluating hierarchy "geo": complaint attribute "altitude" not in drill-down`
	for i := 0; i < 50; i++ {
		if _, err := s.Recommend(c); err == nil || err.Error() != want {
			t.Fatalf("evaluation %d: error %v, want %s", i, err, want)
		}
	}
}

func TestTopKLimitsRanking(t *testing.T) {
	sc := buildScenario(9)
	eng, _ := NewEngine(sc.ds, Options{EMIterations: 3, TopK: 2, Trainer: TrainerNaive})
	s, _ := eng.NewSession([]string{"district", "year"})
	rec, err := s.Recommend(Complaint{
		Agg: agg.Mean, Measure: "severity",
		Tuple:     data.Predicate{"district": "d0", "year": "1990"},
		Direction: TooLow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, hr := range rec.All {
		if len(hr.Ranked) > 2 {
			t.Errorf("hierarchy %s returned %d groups, want ≤ 2", hr.Hierarchy, len(hr.Ranked))
		}
	}
}

func TestComplaintBaseStatsAndRepair(t *testing.T) {
	s := agg.FromValues([]float64{8, 10, 12})
	c := Complaint{Agg: agg.Sum}
	got := c.repairStats(s, map[agg.Func]float64{agg.Mean: 20, agg.Count: 5})
	if got.Count != 5 || math.Abs(got.Mean()-20) > 1e-9 {
		t.Errorf("sum repair = %+v", got)
	}
	c = Complaint{Agg: agg.Count}
	got = c.repairStats(s, map[agg.Func]float64{agg.Count: -3})
	if got.Count != 0 {
		t.Errorf("negative count should clamp to 0, got %v", got.Count)
	}
	c = Complaint{Agg: agg.Std}
	got = c.repairStats(s, map[agg.Func]float64{agg.Mean: 10, agg.Std: -1})
	if got.Std() != 0 {
		t.Errorf("negative std should clamp to 0, got %v", got.Std())
	}
	if len((Complaint{Agg: agg.Sum}).baseStats()) != 2 {
		t.Error("sum needs mean and count models")
	}
}
