package synth

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/mat"
)

func TestGenerateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Generate(Config{Groups: 20}, rng)
	if len(d.Groups) != 20 {
		t.Fatalf("groups = %d", len(d.Groups))
	}
	groups := agg.GroupBy(d.DS, []string{"grp"}, "val")
	if len(groups.Groups) != 20 {
		t.Fatalf("observed groups = %d", len(groups.Groups))
	}
	// Group sizes near 100, values near 100.
	var sizes, means []float64
	for _, g := range groups.Groups {
		sizes = append(sizes, g.Stats.Count)
		means = append(means, g.Stats.Mean())
	}
	if m := mat.Mean(sizes); m < 80 || m > 120 {
		t.Errorf("mean group size = %v", m)
	}
	if m := mat.Mean(means); m < 90 || m > 110 {
		t.Errorf("mean value = %v", m)
	}
}

func TestInjectMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Generate(Config{Groups: 10}, rng)
	before := d.GroupStat(agg.Count, d.Groups)
	corrupted := d.Inject(d.Groups[3], Missing)
	after := corrupted.GroupStat(agg.Count, d.Groups)
	for i := range d.Groups {
		if i == 3 {
			if math.Abs(after[i]-before[i]/2) > 1 {
				t.Errorf("missing group count = %v, want ≈%v", after[i], before[i]/2)
			}
		} else if after[i] != before[i] {
			t.Errorf("group %d count changed: %v → %v", i, before[i], after[i])
		}
	}
}

func TestInjectDup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Generate(Config{Groups: 10}, rng)
	before := d.GroupStat(agg.Count, d.Groups)
	after := d.Inject(d.Groups[5], Dup).GroupStat(agg.Count, d.Groups)
	if math.Abs(after[5]-before[5]*1.5) > 1 {
		t.Errorf("dup group count = %v, want ≈%v", after[5], before[5]*1.5)
	}
}

func TestInjectDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := Generate(Config{Groups: 10}, rng)
	before := d.GroupStat(agg.Mean, d.Groups)
	up := d.Inject(d.Groups[0], DriftUp).GroupStat(agg.Mean, d.Groups)
	if math.Abs(up[0]-(before[0]+DriftDelta)) > 1e-9 {
		t.Errorf("drift up mean = %v, want %v", up[0], before[0]+DriftDelta)
	}
	down := d.Inject(d.Groups[0], DriftDown).GroupStat(agg.Mean, d.Groups)
	if math.Abs(down[0]-(before[0]-DriftDelta)) > 1e-9 {
		t.Errorf("drift down mean = %v", down[0])
	}
}

func TestInjectCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Generate(Config{Groups: 10}, rng)
	beforeCount := d.GroupStat(agg.Count, d.Groups)
	beforeMean := d.GroupStat(agg.Mean, d.Groups)
	c := d.Inject(d.Groups[2], MissingDriftDown)
	if got := c.GroupStat(agg.Count, d.Groups)[2]; math.Abs(got-beforeCount[2]/2) > 1 {
		t.Errorf("combo count = %v", got)
	}
	// The drift applies to the surviving rows; the mean shifts by ≈ −5
	// (up to which half was deleted).
	if got := c.GroupStat(agg.Mean, d.Groups)[2]; math.Abs(got-(beforeMean[2]-DriftDelta)) > 3 {
		t.Errorf("combo mean = %v, want ≈%v", got, beforeMean[2]-DriftDelta)
	}
	c2 := d.Inject(d.Groups[2], DupDriftUp)
	if got := c2.GroupStat(agg.Count, d.Groups)[2]; math.Abs(got-beforeCount[2]*1.5) > 1 {
		t.Errorf("dup combo count = %v", got)
	}
}

func TestInjectDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := Generate(Config{Groups: 5}, rng)
	before := d.GroupStat(agg.Mean, d.Groups)
	_ = d.Inject(d.Groups[0], DriftUp)
	after := d.GroupStat(agg.Mean, d.Groups)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Inject modified its input")
		}
	}
}

func TestErrorTypeStrings(t *testing.T) {
	for _, e := range []ErrorType{Missing, Dup, DriftUp, DriftDown, MissingDriftDown, DupDriftUp} {
		if e.String() == "" {
			t.Error("empty ErrorType string")
		}
	}
	if ErrorType(99).String() == "" {
		t.Error("unknown ErrorType should render")
	}
}

// Iman–Conover: the achieved rank correlation must track the requested one.
func TestCorrelatedAuxHitsTargetRho(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := Generate(Config{Groups: 200}, rng)
	stat := d.GroupStat(agg.Mean, d.Groups)
	for _, rho := range []float64{0.6, 0.8, 1.0} {
		var achieved []float64
		for rep := 0; rep < 10; rep++ {
			aux := CorrelatedAux(d.Groups, stat, rho, rng)
			vals := aux.Measure("auxval")
			achieved = append(achieved, spearman(stat, vals))
		}
		m := mat.Mean(achieved)
		if math.Abs(m-rho) > 0.08 {
			t.Errorf("rho %v: achieved %v", rho, m)
		}
	}
}

func TestCorrelatedAuxPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	stat := []float64{5, 1, 3, 2, 4}
	aux := CorrelatedAux([]string{"a", "b", "c", "d", "e"}, stat, 1.0, rng)
	vals := aux.Measure("auxval")
	if got := spearman(stat, vals); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect rho gives Spearman %v", got)
	}
}

// spearman is the Spearman rank correlation of a and b: Pearson's over their
// fractional ranks, ties averaged.
func spearman(a, b []float64) float64 {
	ranks := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return v[idx[x]] < v[idx[y]] })
		out := make([]float64, len(v))
		for i := 0; i < len(v); {
			j := i
			for j+1 < len(v) && v[idx[j+1]] == v[idx[i]] {
				j++
			}
			for _, at := range idx[i : j+1] {
				out[at] = float64(i+j)/2 + 1
			}
			i = j + 1
		}
		return out
	}
	return mat.PearsonCorr(ranks(a), ranks(b))
}
