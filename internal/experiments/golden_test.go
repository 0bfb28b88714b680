package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_experiments.json from the current implementation")

const goldenPath = "testdata/golden_experiments.json"

// digest hashes an experiment's non-timing outputs: strings and integers by
// their text, floats by their IEEE-754 bits, one field per line.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(fields ...any) {
	for _, f := range fields {
		switch v := f.(type) {
		case float64:
			fmt.Fprintf(d.h, "f%016x\n", math.Float64bits(v))
		case string:
			fmt.Fprintf(d.h, "s%d:%s\n", len(v), v)
		case bool, int:
			fmt.Fprintf(d.h, "v%v\n", v)
		default:
			panic(fmt.Sprintf("digest: unsupported field type %T", f))
		}
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestGoldenExperiments pins what the paper-figure runners compute — accuracy
// counts, rankings and fitted values, bit for bit; wall-clock columns are left
// out — so that performance work underneath them (group-by, feature build,
// the model fit) cannot silently change the science. Run with -update to
// record the current implementation's outputs.
func TestGoldenExperiments(t *testing.T) {
	got := map[string]string{}

	d := newDigest()
	rows11, _ := Fig11(6, []float64{1.0, 0.6}, 42)
	for _, r := range rows11 {
		d.add(r.Error.String(), r.Rho, r.Method, r.Accuracy)
	}
	got["fig11"] = d.sum()

	d = newDigest()
	rows12, _ := Fig12(6, []float64{1.0, 0.6}, 7)
	for _, r := range rows12 {
		d.add(r.Condition, r.Rho, r.Method, r.Accuracy)
	}
	got["fig12"] = d.sum()

	d = newDigest()
	rows13, _, _, _ := Fig13(1)
	for _, r := range rows13 {
		d.add(r.Issue.ID, r.Reptile, r.Sens, r.Support)
	}
	got["fig13"] = d.sum()

	d = newDigest()
	rows16, _ := Fig16(8, 3)
	for _, r := range rows16 {
		d.add(r.Dataset, r.Model, r.AIC, r.DeltaIC)
	}
	got["fig16"] = d.sum()

	d = newDigest()
	rows18, sum18, _ := Fig18(5)
	for _, r := range rows18 {
		d.add(r.County, r.Pct2016, r.Pct2020, r.GainModel1, r.GainModel2, r.GainMissing)
	}
	d.add(sum18.CorrModel2ChangeGain, sum18.MissingTopHits)
	for _, c := range sum18.MissingTargets {
		d.add(c)
	}
	got["fig18"] = d.sum()

	d = newDigest()
	fist, _ := FISTStudy(8, 1)
	for _, r := range fist {
		d.add(r.Scenario.ID, r.Resolved, r.Detail)
	}
	got["fist"] = d.sum()

	d = newDigest()
	abl, _ := AblationZ(1)
	leak, _ := AblationLeakGuard(20, 1)
	par, _ := AblationParallelGroups(1)
	for _, r := range append(append(abl, leak...), par...) {
		d.add(r.Study, r.Variant, r.Accuracy)
	}
	got["ablations"] = d.sum()

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Errorf("%d experiments computed, %d recorded", len(got), len(want))
	}
	for label, w := range want {
		if g := got[label]; g != w {
			t.Errorf("%s: digest %q, recorded %q", label, g, w)
		}
	}
}
