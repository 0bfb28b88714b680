package server

import (
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/store"
)

// FuzzAppendCSV feeds arbitrary append bodies through the append path against
// the drought schema: data's CSV reader, the schema mapping and the batch
// interner. Every input yields an error or rows of the schema's arity with
// finite measures, and none panics.
func FuzzAppendCSV(f *testing.F) {
	f.Add("district,village,year,severity\nRaya,Bala,1986,4\n")
	f.Add("severity,year,village,district\n4,1986,Bala,Raya\n5,1987,\"Bala, \"\"new\"\"\",Raya\n")
	f.Add("district,village,year,severity\n")                       // header only
	f.Add("district,village,severity\nRaya,Bala,4\n")               // missing column
	f.Add("district,village,year,severity,x\nRaya,Bala,1986,4,y\n") // extra column
	f.Add("district,district,year,severity\nRaya,Bala,1986,4\n")    // duplicate column
	f.Add("district,village,year,severity\nRaya,Bala,1986,+Inf\n")  // non-finite
	f.Add("district,village,year,severity\nRaya,Bala\n")            // short record
	f.Add("district,village,year,severity\nRa\x1fya,Bala,1986,4\n") // reserved separator
	f.Add("district,village,year,severity\n\"torn,Bala,1986,4\n")
	f.Add("")

	hs, err := data.ParseHierarchySpec(testHierarchies)
	if err != nil {
		f.Fatal(err)
	}
	ds, err := data.ReadCSV(strings.NewReader(testCSV), "drought", []string{"severity"}, hs)
	if err != nil {
		f.Fatal(err)
	}
	base := store.FromDataset(ds)
	f.Fuzz(func(t *testing.T, body string) {
		rows, err := parseAppendCSV(base, body)
		if err != nil {
			return
		}
		for i, r := range rows {
			if len(r.Dims) != len(base.Dims) || len(r.Measures) != len(base.Measures) {
				t.Fatalf("row %d has %d/%d values, want %d/%d", i, len(r.Dims), len(r.Measures), len(base.Dims), len(base.Measures))
			}
			for _, v := range r.Measures {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d has the non-finite measure %v", i, v)
				}
			}
		}
		// A value the reader passes may still be one no dictionary admits.
		_, _ = store.EncodeBatch(base, rows)
	})
}
