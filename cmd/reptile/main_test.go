package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/reptile"
)

func TestParseComplaint(t *testing.T) {
	c, err := reptile.ParseComplaint("agg=mean measure=severity dir=low district=Ofla year=1986")
	if err != nil {
		t.Fatal(err)
	}
	if c.Agg != reptile.Mean || c.Measure != "severity" || c.Direction != reptile.TooLow {
		t.Errorf("parsed = %+v", c)
	}
	if c.Tuple["district"] != "Ofla" || c.Tuple["year"] != "1986" {
		t.Errorf("tuple = %v", c.Tuple)
	}
	if _, err := reptile.ParseComplaint("agg=mean"); err == nil {
		t.Error("expected error for missing measure")
	}
	if _, err := reptile.ParseComplaint("agg=bogus measure=m dir=low"); err == nil {
		t.Error("expected error for bad aggregate")
	}
	if _, err := reptile.ParseComplaint("agg=mean measure=m dir=sideways"); err == nil {
		t.Error("expected error for bad direction")
	}
	if _, err := reptile.ParseComplaint("notakv"); err == nil {
		t.Error("expected error for malformed field")
	}
}

func TestParseAux(t *testing.T) {
	if _, err := parseAux("toofew:fields"); err == nil {
		t.Error("expected error for bad aux spec")
	}
}

func TestSplitNonEmpty(t *testing.T) {
	got := splitNonEmpty(" a, ,b ,", ",")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("splitNonEmpty = %v", got)
	}
	if splitNonEmpty("", ",") != nil {
		t.Error("empty input should yield nil")
	}
}

const testCSV = "district,village,year,severity\n" +
	"Ofla,Adishim,1986,8\nOfla,Adishim,1987,7\nOfla,Zata,1986,2\nOfla,Zata,1987,7\n" +
	"Raya,Kukufto,1986,8\nRaya,Kukufto,1987,6\nRaya,Mehoni,1986,7\nRaya,Mehoni,1987,6\n"

const testHierarchies = "geo:district,village;time:year"

// writeTestCSV materializes the demo dataset and returns its path.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "drought.csv")
	if err := os.WriteFile(path, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func buildTestEngine(t *testing.T) *reptile.Engine {
	t.Helper()
	eng, err := reptile.Open(writeTestCSV(t),
		reptile.WithMeasures("severity"),
		reptile.WithHierarchies(testHierarchies),
		reptile.WithEMIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestInteractiveSession(t *testing.T) {
	eng := buildTestEngine(t)
	in := strings.NewReader(strings.Join([]string{
		"groupby",
		"help",
		"bogus",
		"complain agg=mean measure=severity dir=low district=Ofla year=1986",
		"drill geo",
		"drill nope",
		"complain agg=notreal",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := runInteractive(eng, []string{"district", "year"}, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"group-by: district, year", "unknown command", "drill geo -> village", "drilled geo", "error:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestConvertAndSnapshotLoad(t *testing.T) {
	csvPath := writeTestCSV(t)
	rstPath := filepath.Join(filepath.Dir(csvPath), "drought.rst")
	err := runConvert([]string{
		"-data", csvPath, "-out", rstPath,
		"-hierarchies", testHierarchies,
		"-measures", "severity", "-name", "drought",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both loads drive the engine to byte-identical recommendations.
	var recs [][]byte
	for _, path := range []string{csvPath, rstPath} {
		opts := []reptile.Option{reptile.WithEMIterations(4), reptile.WithWorkers(1)}
		if strings.HasSuffix(path, ".csv") {
			opts = append(opts, reptile.WithMeasures("severity"), reptile.WithHierarchies(testHierarchies))
		}
		eng, err := reptile.Open(path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, ".rst") && eng.Dataset().Name != "drought" {
			t.Errorf("snapshot dataset name = %q, want the -name value", eng.Dataset().Name)
		}
		sess, err := eng.NewSession([]string{"district", "year"})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sess.Complain("agg=mean measure=severity dir=low district=Ofla year=1986")
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
		t.Errorf("CSV and snapshot recommendations differ:\ncsv: %s\nrst: %s", recs[0], recs[1])
	}
}

// TestConvertRewritesVersion1CubeSection converts a snapshot written with a
// version-1 (varint) cube section, which opens without its cube: with -cube
// the output carries the cube again, in the current section layout.
func TestConvertRewritesVersion1CubeSection(t *testing.T) {
	const old = "../../internal/store/testdata/cube_v1.rst"
	if s, err := store.OpenFile(old); err != nil || s.Cube() != nil {
		t.Fatalf("version-1 fixture: err %v, cube %v", err, s != nil && s.Cube() != nil)
	}
	out := filepath.Join(t.TempDir(), "converted.rst")
	if err := runConvert([]string{"-data", old, "-out", out, "-cube"}); err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cube() == nil || s.NumRows() != 300 {
		t.Fatalf("converted snapshot: cube %v, %d rows", s.Cube() != nil, s.NumRows())
	}
}
