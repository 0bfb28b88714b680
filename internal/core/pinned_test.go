package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_recommendations.json from the current implementation")

const pinnedPath = "testdata/pinned_recommendations.json"

// pinnedStep is what one step of a walk records: the sha256 of the
// recommendation JSON (every score, to the bit) and, beside it, the ranked
// group keys per candidate hierarchy — the part of the answer a user acts on,
// which a deliberate floating-point change may not reorder even as it moves
// the digest. A step the engine refuses records the error instead.
type pinnedStep struct {
	SHA256 string            `json:"sha256,omitempty"`
	Ranked map[string]string `json:"ranked,omitempty"` // per hierarchy, best first
	Error  string            `json:"error,omitempty"`
}

// quickstartDataset rebuilds the examples/quickstart survey (same generator
// and seed as the example program).
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

// TestPinnedRecommendations pins the science: for each dataset the examples/
// programs run on, under each of the three trainers internal/experiments
// needs, it walks four drill steps from the undrilled view (recommend, drill
// into the best hierarchy, narrow the complaint to its top-ranked group) with
// the example's statistic, measure and direction, and compares the sha256 of
// the recommendation JSON of every step, and every hierarchy's ranking, with
// what was recorded. A walk that runs out of hierarchies pins the engine's
// error instead. Performance work on the model code must leave every digest
// as recorded; regenerate with -update only for a change that is meant to
// move the numbers, and then the rankings in the diff must not move.
func TestPinnedRecommendations(t *testing.T) {
	cases := []struct {
		name      string
		ds        *data.Dataset
		complaint core.Complaint
	}{
		{
			name:      "quickstart",
			ds:        quickstartDataset(),
			complaint: core.Complaint{Agg: agg.Std, Measure: "severity", Direction: core.TooHigh},
		},
		{
			name:      "drought",
			ds:        datasets.GenerateFIST(11).DS,
			complaint: core.Complaint{Agg: agg.Mean, Measure: "severity", Direction: core.TooLow},
		},
		{
			name:      "covid",
			ds:        datasets.GenerateCovidUS(3),
			complaint: core.Complaint{Agg: agg.Sum, Measure: "confirmed", Direction: core.TooLow},
		},
		{
			name:      "vote",
			ds:        datasets.GenerateVote(9).DS,
			complaint: core.Complaint{Agg: agg.Mean, Measure: "pct2020", Direction: core.TooLow},
		},
		{
			name:      "absentee",
			ds:        datasets.GenerateAbsentee(5, 3000),
			complaint: core.Complaint{Agg: agg.Count, Measure: "one", Direction: core.TooHigh},
		},
	}
	trainers := []struct {
		name string
		kind core.TrainerKind
	}{
		{"naive", core.TrainerNaive},
		{"factorised", core.TrainerFactorised},
		{"naive-full", core.TrainerNaiveFull},
	}

	got := map[string]pinnedStep{}
	for _, tc := range cases {
		for _, tr := range trainers {
			eng, err := core.NewEngine(tc.ds, core.Options{EMIterations: 6, Trainer: tr.kind, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(nil)
			if err != nil {
				t.Fatal(err)
			}
			c := tc.complaint
			c.Tuple = data.Predicate{}
			for step := 0; step < 4; step++ {
				label := fmt.Sprintf("%s/%s/step%d", tc.name, tr.name, step)
				rec, err := sess.Recommend(c)
				if err != nil {
					got[label] = pinnedStep{Error: err.Error()}
					break
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				ranked := map[string]string{}
				for _, hr := range rec.All {
					keys := make([]string, len(hr.Ranked))
					for i, gs := range hr.Ranked {
						keys[i] = strings.Join(gs.Group.Vals, "/")
					}
					ranked[hr.Hierarchy] = strings.Join(keys, ", ")
				}
				got[label] = pinnedStep{SHA256: hex.EncodeToString(sum[:]), Ranked: ranked}
				if rec.Best == nil || len(rec.Best.Ranked) == 0 {
					break
				}
				if err := sess.Drill(rec.Best.Hierarchy); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				top := rec.Best.Ranked[0].Group.Vals
				c.Tuple[rec.Best.Attr] = top[len(top)-1]
			}
		}
	}

	if *updatePinned {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinnedStep
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d steps computed, %d recorded", len(got), len(want))
	}
	for label, w := range want {
		g := got[label]
		if !reflect.DeepEqual(g.Ranked, w.Ranked) {
			t.Errorf("%s: ranking %v, recorded %v", label, g.Ranked, w.Ranked)
		}
		if g.SHA256 != w.SHA256 || g.Error != w.Error {
			t.Errorf("%s: digest %q error %q, recorded %q %q", label, g.SHA256, g.Error, w.SHA256, w.Error)
		}
	}
}
