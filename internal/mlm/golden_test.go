package mlm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/agg"
	"repro/internal/factor"
	"repro/internal/fmatrix"
	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_bits.json from the current implementation")

const goldenPath = "testdata/golden_bits.json"

// goldenShape describes one seeded design: per hierarchy, the child counts
// below each level (a flat hierarchy is {n}; {3, 2} is three parents with two
// children each, ±1 by the seed when jitter is set). children, when set, gives
// the last hierarchy's k-th root children[k] children instead, so it fixes
// every cluster's size.
type goldenShape struct {
	name     string
	seed     int64
	hiers    [][]int
	jitter   bool
	constY   bool
	children []int
}

var goldenShapes = []goldenShape{
	{name: "two-hier", seed: 11, hiers: [][]int{{5}, {4, 4}}, jitter: true},
	{name: "three-hier", seed: 12, hiers: [][]int{{3}, {3, 2}, {2, 2, 3}}, jitter: true},
	{name: "big-clusters", seed: 13, hiers: [][]int{{6, 7}}, jitter: true},
	// The degenerate designs ROADMAP item 4 lists.
	{name: "one-cluster", seed: 14, hiers: [][]int{{12}}},
	{name: "one-row-per-cluster", seed: 15, hiers: [][]int{{4}, {5, 1}}},
	{name: "constant-y", seed: 16, hiers: [][]int{{5}, {4, 4}}, jitter: true, constY: true},
}

// build renders the shape as a factorised matrix (intercept plus one column
// per attribute, values drawn from a small set so columns repeat values) and
// a y vector: the per-group means of a seeded internal/synth dataset with one
// group per model row.
func (s goldenShape) build(t testing.TB) (*fmatrix.Matrix, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	srcs := make([]*factor.Source, len(s.hiers))
	depths := make([]int, len(s.hiers))
	for h, fan := range s.hiers {
		attrs := make([]string, len(fan))
		for l := range attrs {
			attrs[l] = fmt.Sprintf("h%d_l%d", h, l)
		}
		var paths [][]string
		var walk func(prefix []string, l, parent int)
		walk = func(prefix []string, l, parent int) {
			if l == len(fan) {
				paths = append(paths, append([]string(nil), prefix...))
				return
			}
			n := fan[l]
			if s.jitter && l > 0 {
				n += rng.Intn(3) - 1
			}
			if s.children != nil && h == len(s.hiers)-1 && l == 1 {
				n = s.children[parent]
			}
			for k := 0; k < n; k++ {
				name := fmt.Sprintf("h%d_%d", h, k)
				if l > 0 {
					name = prefix[l-1] + "." + fmt.Sprint(k)
				}
				walk(append(prefix, name), l+1, k)
			}
		}
		walk(nil, 0, 0)
		src, err := factor.NewSource(fmt.Sprintf("h%d", h), attrs, paths)
		if err != nil {
			t.Fatal(err)
		}
		srcs[h] = src
		depths[h] = len(fan)
	}
	f, err := factor.New(srcs, depths)
	if err != nil {
		t.Fatal(err)
	}
	ivals := f.CountVals(0)
	ones := make([]float64, len(ivals))
	for i := range ones {
		ones[i] = 1
	}
	cols := []fmatrix.Column{{Name: "intercept", Attr: 0, Vals: ones}}
	for ai := 0; ai < f.NumAttrs(); ai++ {
		vals := f.CountVals(ai)
		fv := make([]float64, len(vals))
		for i := range fv {
			fv[i] = float64(rng.Intn(7)) - 2.5
		}
		cols = append(cols, fmatrix.Column{Name: fmt.Sprintf("c%d", ai), Attr: ai, Vals: fv})
	}
	m, err := fmatrix.New(f, cols)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.RowCount()
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	if s.constY {
		for i := range y {
			y[i] = 7
		}
		return m, y
	}
	sd := synth.Generate(synth.Config{Groups: n, RowsMean: 12, RowsStd: 3}, rng)
	return m, sd.GroupStat(agg.Mean, sd.Groups)
}

// bitsDigest hashes the IEEE-754 bit patterns of a fit's outputs in a fixed
// order, so two fits agree on the digest only when every element is
// bit-identical.
func bitsDigest(t testing.TB, label string, m *MultiLevel, fitted []float64) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(what string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s is %v, want finite", label, what, v)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range m.Beta {
		put("Beta", v)
	}
	for _, b := range m.B {
		for _, v := range b {
			put("B", v)
		}
	}
	for _, v := range m.Sigma.Data {
		put("Sigma", v)
	}
	put("Sigma2", m.Sigma2)
	for _, v := range fitted {
		put("Fitted", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestGoldenBits pins the bits of Beta, B, Sigma, Sigma2 and Fitted for
// FitEMZ — dense and factorised backends × intercept-only / one-column
// subset / two-column subset / full Z × the scalar and general EM paths —
// over three seeded shapes and three degenerate ones: a
// single cluster, one row per cluster, and constant y (where σ² clamps at
// 1e-12). Every output is finite on every case, and performance work on the
// kernels must leave every digest as recorded; regenerate with -update only
// for a change that is meant to move the numbers.
func TestGoldenBits(t *testing.T) {
	got := map[string]string{}
	opts := Options{Iterations: 7}
	for _, s := range goldenShapes {
		fm, y := s.build(t)
		fb, db := denseTwin(t, fm)
		for _, bk := range []struct {
			name   string
			b      Backend
			subset func(mask []bool) (Backend, error)
		}{
			{"dense", db, func(mask []bool) (Backend, error) { return db.SubsetCols(mask) }},
			{"factorised", fb, func(mask []bool) (Backend, error) { return fb.SubsetCols(mask) }},
		} {
			mask := func(keep ...int) []bool {
				m := make([]bool, bk.b.NumCols())
				for _, j := range keep {
					m[j] = true
				}
				return m
			}
			sub0, err := bk.subset(mask(0))
			if err != nil {
				t.Fatal(err)
			}
			sub01, err := bk.subset(mask(0, bk.b.NumCols()-1))
			if err != nil {
				t.Fatal(err)
			}
			for _, z := range []struct {
				name string
				bz   Backend
			}{
				{"interceptZ", NewInterceptZ(bk.b)},
				{"subset0", sub0},
				{"subset0+last", sub01},
				{"fullZ", bk.b},
			} {
				for _, general := range []bool{false, true} {
					if general && z.bz.NumCols() != 1 {
						continue // q > 1 always takes the general loop
					}
					path := "scalar"
					if general || z.bz.NumCols() != 1 {
						path = "general"
					}
					label := fmt.Sprintf("%s/em/%s/%s/%s", s.name, bk.name, z.name, path)
					loop := emClusterLevel
					if path == "general" {
						loop = emGeneral
					}
					m, err := fitEM(bk.b, z.bz, y, opts, loop)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got[label] = bitsDigest(t, label, m, m.Fitted(bk.b, z.bz))
				}
			}
		}
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases computed, %d recorded", len(got), len(want))
	}
	for label, w := range want {
		if g := got[label]; g != w {
			t.Errorf("%s: digest %q, recorded %q", label, g, w)
		}
	}
}
