package store

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
)

// quickstartDataset rebuilds the examples/quickstart survey (same generator,
// same seed).
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

// TestSnapshotRoundTripFidelity asserts, for each dataset the examples/
// programs run on, that a CSV-round-tripped engine and a .rst-round-tripped
// engine produce byte-identical Recommendation JSON for the example's
// complaint.
func TestSnapshotRoundTripFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip fidelity sweep is not short")
	}
	cases := []struct {
		name      string
		ds        *data.Dataset
		groupBy   []string
		complaint core.Complaint
	}{
		{
			name:      "quickstart",
			ds:        quickstartDataset(),
			groupBy:   []string{"district", "year"},
			complaint: core.Complaint{Agg: agg.Std, Measure: "severity", Tuple: data.Predicate{"district": "Ofla", "year": "1986"}, Direction: core.TooHigh},
		},
		{
			name:      "drought",
			ds:        datasets.GenerateFIST(11).DS,
			groupBy:   []string{"region", "year"},
			complaint: core.Complaint{Agg: agg.Mean, Measure: "severity", Tuple: data.Predicate{"region": "Tigray", "year": "y2010"}, Direction: core.TooLow},
		},
		{
			name:      "covid",
			ds:        datasets.GenerateCovidUS(3),
			groupBy:   []string{"day"},
			complaint: core.Complaint{Agg: agg.Sum, Measure: "confirmed", Tuple: data.Predicate{"day": "d070"}, Direction: core.TooLow},
		},
		{
			name:      "vote",
			ds:        datasets.GenerateVote(9).DS,
			groupBy:   []string{"state"},
			complaint: core.Complaint{Agg: agg.Mean, Measure: "pct2020", Tuple: data.Predicate{"state": "Georgia"}, Direction: core.TooLow},
		},
		{
			name:      "absentee",
			ds:        datasets.GenerateAbsentee(5, 3000),
			groupBy:   nil,
			complaint: core.Complaint{Agg: agg.Count, Measure: "one", Tuple: data.Predicate{}, Direction: core.TooHigh},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// CSV round trip: dictionaries re-interned from text.
			var csvBuf bytes.Buffer
			if err := tc.ds.WriteCSV(&csvBuf); err != nil {
				t.Fatal(err)
			}
			fromCSV, err := data.ReadCSV(&csvBuf, tc.ds.Name, tc.ds.MeasureNames(), tc.ds.Hierarchies)
			if err != nil {
				t.Fatal(err)
			}
			// .rst round trip: dictionary-coded columns, coded hot paths.
			var rstBuf bytes.Buffer
			if err := FromDataset(tc.ds).Write(&rstBuf); err != nil {
				t.Fatal(err)
			}
			snap, err := Open(bytes.NewReader(rstBuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fromRST, err := snap.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			if fromRST.NumRows() != tc.ds.NumRows() || fromCSV.NumRows() != tc.ds.NumRows() {
				t.Fatalf("rows: csv %d rst %d want %d", fromCSV.NumRows(), fromRST.NumRows(), tc.ds.NumRows())
			}

			var recs [][]byte
			for _, ds := range []*data.Dataset{fromCSV, fromRST} {
				eng, err := core.NewEngine(ds, core.Options{EMIterations: 4, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := eng.NewSession(tc.groupBy)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := sess.Recommend(tc.complaint)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, b)
			}
			if !bytes.Equal(recs[0], recs[1]) {
				t.Errorf("CSV-loaded and snapshot-loaded recommendations differ:\ncsv: %.400s\nrst: %.400s", recs[0], recs[1])
			}
		})
	}
}
