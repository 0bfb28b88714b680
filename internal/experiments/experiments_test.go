package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/synth"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.Add("x", 1.5)
	tb.Add("longer", "cell")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer") {
		t.Errorf("rendering missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 { // title, blank, header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), s)
	}
}

func TestFig7SmallRunsAndVerifies(t *testing.T) {
	rows, tb := Fig7(3, 1)
	if len(rows) != 3*4 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
	// Fig7 panics internally when factorised ops disagree with naive ones,
	// so reaching here already verifies correctness; check the ops are all
	// present per d.
	ops := map[string]int{}
	for _, r := range rows {
		ops[r.Op]++
	}
	for _, op := range []string{"materialize", "gram", "leftmul", "rightmul"} {
		if ops[op] != 3 {
			t.Errorf("op %s rows = %d", op, ops[op])
		}
	}
}

func TestFig8SharedIsFasterAtScale(t *testing.T) {
	rows, _ := Fig8([]int{400, 800})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The serial plan materializes cross-hierarchy COF and must be slower
	// at the larger cardinality.
	last := rows[len(rows)-1]
	if last.Serial <= last.Shared {
		t.Errorf("serial %v should exceed shared %v at cardinality %d", last.Serial, last.Shared, last.Cardinality)
	}
}

// Property: Figure 8's serial baseline computes the XᵀX that fmatrix.Gram
// serves, to a relative 1e-9, over random chains of 2–3 hierarchies with one
// or two columns per attribute. Every third trial makes the first hierarchy
// one attribute deep, and the next trial gives the last a single leaf.
func TestSerialGramMatchesServedGramProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		nh := 2 + r.Intn(2)
		srcs := make([]*factor.Source, nh)
		depths := make([]int, nh)
		for h := range srcs {
			depth := 1 + r.Intn(3)
			if h == 0 && trial%3 == 0 {
				depth = 1
			}
			fan := func() int { return 1 + r.Intn(4) }
			if h == nh-1 && trial%3 == 1 {
				fan = func() int { return 1 }
			}
			srcs[h] = randomChain(fmt.Sprintf("h%d", h), depth, fan)
			depths[h] = 1 + r.Intn(depth)
		}
		fz, err := factor.New(srcs, depths)
		if err != nil {
			t.Fatal(err)
		}
		var cols []fmatrix.Column
		for ai := 0; ai < fz.NumAttrs(); ai++ {
			vals := fz.CountVals(ai)
			for c := 0; c < 1+r.Intn(2); c++ {
				fv := make([]float64, len(vals))
				for v := range fv {
					fv[v] = 0.5 + r.Float64()
				}
				cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("a%d_%d", ai, c), Attr: ai, Vals: fv})
			}
		}
		m, err := fmatrix.New(fz, cols)
		if err != nil {
			t.Fatal(err)
		}
		if served, serial := m.Gram(), serialGram(m); !gramsAgree(served, serial, 1e-9) {
			t.Fatalf("trial %d: serial XᵀX\n%v\ndiffers from served\n%v", trial, serial.Data, served.Data)
		}
	}
}

// randomChain builds a hierarchy of the given depth in which every value
// has fan() children.
func randomChain(name string, depth int, fan func() int) *factor.Source {
	attrs := make([]string, depth)
	for l := range attrs {
		attrs[l] = fmt.Sprintf("%s_a%d", name, l)
	}
	var paths [][]string
	var build func(prefix []string)
	id := 0
	build = func(prefix []string) {
		if len(prefix) == depth {
			paths = append(paths, slices.Clone(prefix))
			return
		}
		for k := fan(); k > 0; k-- {
			id++
			build(append(prefix, fmt.Sprintf("%s_v%d", name, id)))
		}
	}
	build(nil)
	src, err := factor.NewSource(name, attrs, paths)
	if err != nil {
		panic(err)
	}
	return src
}

func TestFig9ModesOrdering(t *testing.T) {
	// Wall-clock assertions are noisy under parallel bench runs; retry a
	// few times and only fail if the ordering never holds.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		rows, _ := Fig9(4000)
		if len(rows) != 9 {
			t.Fatalf("rows = %d, want 9", len(rows))
		}
		// Fig9 itself panics unless the three configurations recommend
		// byte-identical JSON. For each B depth, Cache+Dynamic must not be
		// slower than Static by more than noise.
		byN := map[int]map[string]int64{}
		for _, r := range rows {
			if byN[r.PreDrilledB] == nil {
				byN[r.PreDrilledB] = map[string]int64{}
			}
			byN[r.PreDrilledB][r.Mode] = r.Total.Nanoseconds()
		}
		lastErr = ""
		for n, m := range byN {
			if m["Cache+Dynamic"] > m["Static"]*2 {
				lastErr = fmt.Sprintf("n=%d: cache+dynamic %v much slower than static %v",
					n, m["Cache+Dynamic"], m["Static"])
			}
		}
		if lastErr == "" {
			return
		}
	}
	t.Error(lastErr)
}

func TestFig11SmallShape(t *testing.T) {
	rows, tb := Fig11(8, []float64{1.0}, 42)
	if len(rows) != 6*1*len(Fig11Methods) {
		t.Fatalf("rows = %d", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
	// With perfect auxiliary correlation Reptile should dominate every
	// baseline on average.
	var rep, others float64
	var nOthers int
	for _, r := range rows {
		if r.Method == "Reptile" {
			rep += r.Accuracy
		} else {
			others += r.Accuracy
			nOthers++
		}
	}
	rep /= 6
	others /= float64(nOthers)
	if rep <= others {
		t.Errorf("Reptile avg %.2f should beat baselines avg %.2f at rho=1", rep, others)
	}
	if rep < 0.8 {
		t.Errorf("Reptile accuracy at rho=1 = %.2f, want ≥ 0.8", rep)
	}
}

func TestFig12OutlierBounded(t *testing.T) {
	rows, _ := Fig12(8, []float64{1.0}, 7)
	for _, r := range rows {
		if r.Method == "Reptile" && r.Accuracy < 0.7 {
			t.Errorf("%s rho %.1f: Reptile accuracy %.2f too low", r.Condition, r.Rho, r.Accuracy)
		}
	}
}

func TestFig11ComplaintMapping(t *testing.T) {
	for _, et := range []synth.ErrorType{synth.Missing, synth.Dup, synth.DriftUp, synth.DriftDown, synth.MissingDriftDown, synth.DupDriftUp} {
		c := fig11Complaint(et)
		if c.Measure != "val" {
			t.Errorf("%v: measure %q", et, c.Measure)
		}
	}
}

func TestFig16ShapesHold(t *testing.T) {
	rows, tb := Fig16(8, 3)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
	aic := map[string]map[string]float64{}
	for _, r := range rows {
		if aic[r.Dataset] == nil {
			aic[r.Dataset] = map[string]float64{}
		}
		aic[r.Dataset][r.Model] = r.AIC
	}
	// FIST: the multi-level models substantially beat the linear ones
	// (ΔAIC > 10, the Appendix K rule of thumb).
	if aic["FIST"]["Multi-level"] >= aic["FIST"]["Linear"]-10 {
		t.Errorf("FIST: multi-level AIC %v should beat linear %v by >10",
			aic["FIST"]["Multi-level"], aic["FIST"]["Linear"])
	}
	// Vote: the 2016 auxiliary feature dominates (models with it beat
	// models without by >10).
	if aic["Vote"]["Linear-f"] >= aic["Vote"]["Linear"]-10 {
		t.Errorf("Vote: Linear-f %v should beat Linear %v", aic["Vote"]["Linear-f"], aic["Vote"]["Linear"])
	}
	if aic["Vote"]["Multi-level-f"] >= aic["Vote"]["Multi-level"]-10 {
		t.Errorf("Vote: Multi-level-f %v should beat Multi-level %v",
			aic["Vote"]["Multi-level-f"], aic["Vote"]["Multi-level"])
	}
}

func TestFig18CaseStudy(t *testing.T) {
	rows, summary, tb := Fig18(5)
	if len(rows) != 159 {
		t.Fatalf("rows = %d, want 159 Georgia counties", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
	// Model 2 interprets the complaint through the 2016 share: gains should
	// be strongly anti-correlated with the 2016→2020 change (counties whose
	// share dropped most gain most from repair).
	if summary.CorrModel2ChangeGain > -0.5 {
		t.Errorf("model-2 gain correlation with share change = %.2f, want strongly negative", summary.CorrModel2ChangeGain)
	}
	// The missing-records counties should dominate the missing-variant
	// gains.
	if summary.MissingTopHits < 4 {
		t.Errorf("missing-record counties in top 10 = %d/5, want ≥ 4", summary.MissingTopHits)
	}
}

func TestFig15SmallRuns(t *testing.T) {
	rows, tb := Fig15(3, 1)
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
}

func TestFig10ScaledDown(t *testing.T) {
	rows, tb := Fig10(0.02, 3, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if tb.String() == "" {
		t.Error("empty table")
	}
	for _, r := range rows {
		wantInv := 4
		if r.Dataset == "COMPAS" {
			wantInv = 6
		}
		if r.Invocations != wantInv {
			t.Errorf("%s: invocations = %d, want %d", r.Dataset, r.Invocations, wantInv)
		}
	}
}
